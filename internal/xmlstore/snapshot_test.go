package xmlstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
)

// openDir opens a persistent store, failing the test on error.
func openDir(t *testing.T, dir string, opts OpenOptions) (*ordbms.DB, *Store) {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{Dir: dir, NoDerivedSnapshot: opts.DisableSnapshot})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenWith(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, s
}

// snapshotQueryPlans is the query battery the reopen-equivalence tests
// compare byte-for-byte across open paths (mirrors TestKernelEquivalence).
var snapshotQueryPlans = []struct {
	name string
	run  func(s *Store) (any, error)
}{
	{"content", func(s *Store) (any, error) { return s.ContentSearchN("cryogenic", 0) }},
	{"content-multi", func(s *Store) (any, error) { return s.ContentSearchN("cryogenic turbine", 0) }},
	{"content-limit", func(s *Store) (any, error) { return s.ContentSearchN("review", 5) }},
	{"context", func(s *Store) (any, error) { return s.ContextSearch("Budget") }},
	{"context-prefix", func(s *Store) (any, error) { return s.ContextPrefixSearch("Tech") }},
	{"combined", func(s *Store) (any, error) { return s.SearchN("Budget", "request", 0) }},
	{"docs", func(s *Store) (any, error) { return s.ContentSearchDocs("turbine") }},
	{"headings", func(s *Store) (any, error) { return s.ContextHeadings(), nil }},
}

func runPlans(t *testing.T, s *Store) map[string]any {
	t.Helper()
	out := make(map[string]any, len(snapshotQueryPlans))
	for _, p := range snapshotQueryPlans {
		got, err := p.run(s)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out[p.name] = got
	}
	return out
}

func diffPlans(t *testing.T, stage string, got, want map[string]any) {
	t.Helper()
	for _, p := range snapshotQueryPlans {
		if !reflect.DeepEqual(got[p.name], want[p.name]) {
			t.Fatalf("%s: %s diverges:\n got: %+v\nwant: %+v", stage, p.name, got[p.name], want[p.name])
		}
	}
}

// TestSnapshotReopenEquivalence ingests a corpus, checkpoints, and
// reopens both via the snapshot and via the forced full-scan fallback:
// every query family must answer byte-for-byte what the pre-close store
// answered, and the snapshot-loaded store must keep working as a live
// store (counters restored, new ingests visible and searchable).
func TestSnapshotReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	docs, err := s.Documents()
	if err != nil || len(docs) < 3 {
		t.Fatalf("docs: %v (%d)", err, len(docs))
	}
	// A delete before the checkpoint exercises tombstones and pruned
	// derived entries in the snapshot.
	if err := s.DeleteDocument(docs[2].DocID); err != nil {
		t.Fatal(err)
	}
	want := runPlans(t, s)
	maxDoc := uint64(0)
	for _, d := range docs {
		if d.DocID > maxDoc {
			maxDoc = d.DocID
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot path.
	db2, s2 := openDir(t, dir, OpenOptions{})
	if st := s2.SnapshotStats(); !st.Enabled || !st.Loaded {
		t.Fatalf("snapshot not loaded: %+v", st)
	}
	if db2.DerivedLoads == 0 {
		t.Fatal("engine derived snapshot not loaded")
	}
	diffPlans(t, "snapshot reopen", runPlans(t, s2), want)
	db2.CloseDiscard()

	// Forced full-scan fallback on the identical on-disk state.
	db3, s3 := openDir(t, dir, OpenOptions{DisableSnapshot: true})
	if st := s3.SnapshotStats(); st.Enabled || st.Loaded {
		t.Fatalf("ablation flag ignored: %+v", st)
	}
	diffPlans(t, "scan reopen", runPlans(t, s3), want)
	db3.CloseDiscard()

	// The snapshot-loaded store must remain a fully live store.
	db4, s4 := openDir(t, dir, OpenOptions{})
	if !s4.SnapshotStats().Loaded {
		t.Fatal("snapshot not loaded on second reopen")
	}
	id, err := s4.StoreRaw("fresh.xml",
		[]byte(`<report><heading>Xenon Thrusters</heading><para>grid erosion telemetry</para></report>`))
	if err != nil {
		t.Fatal(err)
	}
	if id <= maxDoc {
		t.Fatalf("restored doc-ID counter reused an ID: got %d, prior max %d", id, maxDoc)
	}
	secs, err := s4.ContentSearchN("erosion", 0)
	if err != nil || len(secs) != 1 || secs[0].Context != "Xenon Thrusters" {
		t.Fatalf("post-reopen ingest not searchable: %v %+v", err, secs)
	}
	if err := db4.Close(); err != nil {
		t.Fatal(err)
	}

	// And the refreshed snapshot includes the new document.
	db5, s5 := openDir(t, dir, OpenOptions{})
	defer db5.CloseDiscard()
	if !s5.SnapshotStats().Loaded {
		t.Fatalf("refreshed snapshot not loaded: %+v", s5.SnapshotStats())
	}
	secs, err = s5.ContentSearchN("erosion", 0)
	if err != nil || len(secs) != 1 {
		t.Fatalf("refreshed snapshot misses new doc: %v %+v", err, secs)
	}
}

// TestSnapshotStaleAfterCrash mutates the store after a checkpoint, then
// crashes: the reopened store must reject the now-stale snapshot, rebuild
// by scan, and answer with the post-mutation state.
func TestSnapshotStaleAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, s2 := openDir(t, dir, OpenOptions{})
	if !s2.SnapshotStats().Loaded {
		t.Fatal("setup: snapshot should load")
	}
	if _, err := s2.StoreRaw("late.xml",
		[]byte(`<report><heading>Regolith Handling</heading><para>auger torque margins</para></report>`)); err != nil {
		t.Fatal(err)
	}
	if err := db2.Commit(); err != nil {
		t.Fatal(err)
	}
	want := runPlans(t, s2)
	db2.CloseDiscard() // crash: WAL holds the late ingest, snapshot does not

	db3, s3 := openDir(t, dir, OpenOptions{})
	defer db3.CloseDiscard()
	st := s3.SnapshotStats()
	if st.Loaded {
		t.Fatal("stale snapshot was loaded after a crash with unreplayed WAL records")
	}
	if st.Fallback != "wal-replay" && st.Fallback != "stale" {
		t.Fatalf("unexpected fallback reason %q", st.Fallback)
	}
	diffPlans(t, "crash reopen", runPlans(t, s3), want)
	if secs, err := s3.ContentSearchN("auger", 0); err != nil || len(secs) != 1 {
		t.Fatalf("late ingest lost: %v %+v", err, secs)
	}
}

// TestSnapshotCheckpointCrashMatrix simulates a crash at every step of
// the full checkpoint sequence — store snapshot write, engine derived
// write, catalog write, WAL truncation — and proves each aborted state
// reopens to the exact pre-crash answers, via the snapshot when its
// stamps prove it current and via the scan fallback otherwise.
func TestSnapshotCheckpointCrashMatrix(t *testing.T) {
	// The store snapshot's commit point is its rename: a crash before it
	// leaves the previous snapshot, whose LSN stamp no longer matches the
	// log end, so the reopen falls back to the scan rebuild.  From the
	// rename onward the snapshot is exactly as current as the flushed
	// heap plus the surviving WAL, so every later crash point reopens
	// through it (the post-recovery checkpoint in DB.Open re-commits the
	// catalog at the generation the aborted checkpoint stamped).
	steps := []struct {
		step       string
		wantLoaded bool // snapshot valid after this crash?
	}{
		{"snapshot-temp", false}, // previous snapshot, stale LSN stamp
		{"snapshot-rename", true},
		{"derived-temp", true},
		{"derived-rename", true},
		{"catalog-temp", true},
		{"catalog-rename", true},
		{"wal-temp", true},
		{"wal-rename", true},
	}
	for _, tc := range steps {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			db, s := openDir(t, dir, OpenOptions{})
			gen := corpus.New(99)
			for _, d := range gen.DeepReports(3, 3, 6, 4) {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("baseline checkpoint: %v", err)
			}
			for _, d := range gen.Proposals(5) {
				if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Commit(); err != nil {
				t.Fatal(err)
			}
			want := runPlans(t, s)
			wantDocs := s.NumDocuments()

			injected := errors.New("injected crash")
			db.SetCheckpointFault(func(step string) error {
				if step == tc.step {
					return injected
				}
				return nil
			})
			if err := db.Checkpoint(); !errors.Is(err, injected) {
				t.Fatalf("checkpoint survived injected crash at %s: %v", tc.step, err)
			}
			db.CloseDiscard() // the crash

			db2, s2 := openDir(t, dir, OpenOptions{})
			defer db2.CloseDiscard()
			st := s2.SnapshotStats()
			if st.Loaded != tc.wantLoaded {
				t.Fatalf("crash at %s: snapshot loaded = %v (fallback %q), want %v",
					tc.step, st.Loaded, st.Fallback, tc.wantLoaded)
			}
			if got := s2.NumDocuments(); got != wantDocs {
				t.Fatalf("crash at %s: documents = %d, want %d", tc.step, got, wantDocs)
			}
			diffPlans(t, fmt.Sprintf("crash at %s", tc.step), runPlans(t, s2), want)
		})
	}
}

// TestSnapshotCorruptionFallsBack damages the snapshot file in several
// ways; every damaged form must be rejected in favour of the scan
// rebuild, never a failed open or wrong answers.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	want := runPlans(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func() []byte{
		"bit-flip": func() []byte {
			b := append([]byte(nil), pristine...)
			b[len(b)/2] ^= 0x40
			return b
		},
		"truncated": func() []byte { return pristine[:len(pristine)*2/3] },
		"bad-magic": func() []byte {
			b := append([]byte(nil), pristine...)
			b[0] = 'X'
			return b
		},
		"empty": func() []byte { return nil },
	}
	for name, mk := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mk(), 0o644); err != nil {
				t.Fatal(err)
			}
			db2, s2 := openDir(t, dir, OpenOptions{})
			defer db2.CloseDiscard()
			st := s2.SnapshotStats()
			if st.Loaded {
				t.Fatalf("%s snapshot accepted", name)
			}
			if st.Fallback != "corrupt" {
				t.Fatalf("fallback reason = %q, want corrupt", st.Fallback)
			}
			diffPlans(t, name, runPlans(t, s2), want)
		})
	}
	// Restore the pristine file: it must load again (proves the damage
	// cases above were the only reason for fallback).
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	db3, s3 := openDir(t, dir, OpenOptions{})
	defer db3.CloseDiscard()
	if !s3.SnapshotStats().Loaded {
		t.Fatalf("pristine snapshot rejected: %+v", s3.SnapshotStats())
	}
	diffPlans(t, "pristine", runPlans(t, s3), want)
}

// TestSnapshotVersionSkewFallsBack: a snapshot whose version field is
// not the current one — an old v1 file or a newer format — must fall
// back to the scan rebuild (which retokenizes under the current
// tokenizer contract) and be rewritten at the current version by the
// next checkpoint.
func TestSnapshotVersionSkewFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir, OpenOptions{})
	loadDeepCorpus(t, s)
	want := runPlans(t, s)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(pristine[8:12]); got != snapshotVersion {
		t.Fatalf("fresh snapshot version = %d, want %d", got, snapshotVersion)
	}

	for _, skew := range []uint32{1, snapshotVersion + 1} {
		t.Run(fmt.Sprintf("version=%d", skew), func(t *testing.T) {
			stale := append([]byte(nil), pristine...)
			binary.LittleEndian.PutUint32(stale[8:12], skew)
			if err := os.WriteFile(path, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			// Fallback, never a failed open or wrong answers.
			db2, s2 := openDir(t, dir, OpenOptions{})
			if st := s2.SnapshotStats(); st.Loaded || st.Fallback != "version" {
				t.Fatalf("version-skewed snapshot mishandled: %+v", st)
			}
			diffPlans(t, "skew reopen", runPlans(t, s2), want)
			// The next checkpoint upgrades the file in place.
			if err := db2.Close(); err != nil {
				t.Fatal(err)
			}
			upgraded, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := binary.LittleEndian.Uint32(upgraded[8:12]); got != snapshotVersion {
				t.Fatalf("post-checkpoint version = %d, want %d", got, snapshotVersion)
			}
			db3, s3 := openDir(t, dir, OpenOptions{})
			defer db3.CloseDiscard()
			if st := s3.SnapshotStats(); !st.Loaded {
				t.Fatalf("upgraded snapshot not loaded: %+v", st)
			}
			diffPlans(t, "upgraded reopen", runPlans(t, s3), want)
		})
	}
}
