package xmlstore

import (
	"fmt"
	"sync"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
)

func corpusBatch(n int, seed int64) []BatchDoc {
	gen := corpus.New(seed)
	docs := gen.Mixed(n)
	out := make([]BatchDoc, len(docs))
	for i, d := range docs {
		out[i] = BatchDoc{Name: d.Name, Data: d.Data}
	}
	return out
}

func TestStoreBatchMatchesSequential(t *testing.T) {
	batch := corpusBatch(40, 91)

	seq := memStore(t)
	for _, d := range batch {
		if _, err := seq.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	par := memStore(t)
	results := par.StoreBatch(batch, 4)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("doc %d (%s): %v", i, r.Name, r.Err)
		}
	}

	if seq.NumDocuments() != par.NumDocuments() || seq.NumNodes() != par.NumNodes() {
		t.Fatalf("counts diverge: seq %d/%d par %d/%d",
			seq.NumDocuments(), seq.NumNodes(), par.NumDocuments(), par.NumNodes())
	}
	// Same query results either way.
	for _, q := range []string{"Budget", "Title", "System"} {
		a, err := seq.ContextSearch(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.ContextSearch(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("context %q: seq %d sections, batch %d", q, len(a), len(b))
		}
	}
	a, _ := seq.ContentSearchN("engine", 0)
	b, _ := par.ContentSearchN("engine", 0)
	if len(a) != len(b) {
		t.Fatalf("content search diverges: %d vs %d", len(a), len(b))
	}
	// Reconstruction follows physical links; every document must round-trip.
	for _, r := range results {
		if _, err := par.Reconstruct(r.DocID); err != nil {
			t.Fatalf("reconstruct %d: %v", r.DocID, err)
		}
	}
}

func TestStoreBatchDocIDsFollowInputOrder(t *testing.T) {
	s := memStore(t)
	batch := corpusBatch(25, 7)
	results := s.StoreBatch(batch, 8)
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil {
			t.Fatal(results[i].Err)
		}
		if results[i].DocID != results[i-1].DocID+1 {
			t.Fatalf("doc IDs out of order: %d after %d", results[i].DocID, results[i-1].DocID)
		}
	}
	info, err := s.Document(results[3].DocID)
	if err != nil {
		t.Fatal(err)
	}
	if info.FileName != batch[3].Name {
		t.Fatalf("doc %d is %q, want %q", results[3].DocID, info.FileName, batch[3].Name)
	}
}

func TestStoreBatchIsolatesFailures(t *testing.T) {
	s := memStore(t)
	batch := corpusBatch(6, 13)
	batch[2] = BatchDoc{Name: "blob.bin", Data: []byte{0, 1, 2, 0xFF, 0, 3}}
	results := s.StoreBatch(batch, 3)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil {
				t.Fatal("unconvertible document did not report an error")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
	}
	if got := s.NumDocuments(); got != 5 {
		t.Fatalf("stored %d documents, want 5", got)
	}
}

func TestStoreBatchEmptyAndWorkerClamp(t *testing.T) {
	s := memStore(t)
	if res := s.StoreBatch(nil, 4); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	// More workers than documents must not deadlock or drop docs.
	res := s.StoreBatch(corpusBatch(2, 3), 64)
	for _, r := range res {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestStoreBatchConcurrent drives several StoreBatch calls into one store
// at once (run under -race): document IDs must stay unique and every
// document queryable.
func TestStoreBatchConcurrent(t *testing.T) {
	s := memStore(t)
	const callers, perBatch = 4, 15
	var wg sync.WaitGroup
	resCh := make(chan []BatchResult, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resCh <- s.StoreBatch(corpusBatch(perBatch, seed), 2)
		}(int64(100 + c))
	}
	wg.Wait()
	close(resCh)
	seen := make(map[uint64]bool)
	for results := range resCh {
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if seen[r.DocID] {
				t.Fatalf("duplicate doc ID %d", r.DocID)
			}
			seen[r.DocID] = true
		}
	}
	if got := s.NumDocuments(); got != callers*perBatch {
		t.Fatalf("stored %d documents, want %d", got, callers*perBatch)
	}
	secs, err := s.ContextSearch("Title")
	if err != nil || len(secs) == 0 {
		t.Fatalf("search after concurrent batches: %d sections, err %v", len(secs), err)
	}
}

// TestStoreBatchGroupCommit verifies the WAL side of the tentpole: a
// batch of N documents costs one fsync, not N.
func TestStoreBatchGroupCommit(t *testing.T) {
	dir := t.TempDir()
	db, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	_, syncs0 := db.WALStats()
	batch := corpusBatch(30, 77)
	for _, r := range s.StoreBatch(batch, 4) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	appends, syncs := db.WALStats()
	if appends == 0 {
		t.Fatal("no WAL records appended for a durable batch")
	}
	if got := syncs - syncs0; got != 1 {
		t.Fatalf("batch of %d docs issued %d fsyncs, want 1", len(batch), got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must be there.
	db2, err := ordbms.Open(ordbms.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.NumDocuments(); got != int64(len(batch)) {
		t.Fatalf("reopened store holds %d documents, want %d", got, len(batch))
	}
}

func BenchmarkStoreBatch(b *testing.B) {
	batch := corpusBatch(100, 55)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := memStore(b)
				for _, r := range s.StoreBatch(batch, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
