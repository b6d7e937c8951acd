package textindex

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"hello", []string{"hello"}},
		{"Hello, World!", []string{"hello", "world"}},
		{"space-shuttle v2.0", []string{"space", "shuttle", "v2", "0"}},
		{"  multiple   spaces  ", []string{"multiple", "spaces"}},
		{"ÜBER café", []string{"über", "café"}},
		{"123 456", []string{"123", "456"}},
		// Combining marks extend the current token: the NFD spelling of
		// "cafés" (e + U+0301) must not split at the mark.
		{"cafe\u0301s society", []string{"cafe\u0301s", "society"}},
		// Script boundaries flush, and Han ideographs are unigrams.
		{"abc日本語def", []string{"abc", "日", "本", "語", "def"}},
		{"東京tower", []string{"東", "京", "tower"}},
		{"第3章", []string{"第", "3", "章"}},
		{"한국어 텍스트", []string{"한국어", "텍스트"}},
		{"ひらがなとカタカナ", []string{"ひらがなと", "カタカナ"}},
		{"서울2024", []string{"서울", "2024"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		var terms []string
		for _, tok := range got {
			terms = append(terms, tok.Term)
		}
		if len(terms) != len(c.want) {
			t.Fatalf("Tokenize(%q) = %v, want %v", c.in, terms, c.want)
		}
		for i := range terms {
			if terms[i] != c.want[i] {
				t.Fatalf("Tokenize(%q) = %v, want %v", c.in, terms, c.want)
			}
		}
	}
}

func TestTokenizePositionsAreSequential(t *testing.T) {
	toks := Tokenize("one two three four")
	for i, tok := range toks {
		if tok.Pos != uint32(i) {
			t.Fatalf("token %d has pos %d", i, tok.Pos)
		}
	}
}

func TestLookupBasic(t *testing.T) {
	ix := New()
	ix.Add(1, "the space shuttle launched")
	ix.Add(2, "budget report for the shuttle program")
	ix.Add(3, "unrelated document about parsers")

	got := lookupIDs(ix, "shuttle")
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Lookup(shuttle) = %v", got)
	}
	if got := lookupIDs(ix, "SHUTTLE"); len(got) != 2 {
		t.Fatalf("case-insensitive lookup failed: %v", got)
	}
	if got := lookupIDs(ix, "absent"); got != nil {
		t.Fatalf("Lookup(absent) = %v", got)
	}
	if got := lookupIDs(ix, ""); got != nil {
		t.Fatalf("Lookup(empty) = %v", got)
	}
}

func TestAnd(t *testing.T) {
	ix := New()
	ix.Add(1, "engine anomaly detected")
	ix.Add(2, "engine nominal")
	ix.Add(3, "anomaly in the guidance system")

	and := andIDs(ix, "engine anomaly")
	if len(and) != 1 || and[0] != 1 {
		t.Fatalf("And = %v", and)
	}
	if got := andIDs(ix, "engine missing"); got != nil {
		t.Fatalf("And with absent term = %v", got)
	}
}

func TestPhrase(t *testing.T) {
	ix := New()
	ix.Add(1, "the technology gap is shrinking")
	ix.Add(2, "gap in technology assessments") // both words, wrong order
	ix.Add(3, "technology gap widening")

	got := ix.Phrase("technology gap")
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Phrase = %v", got)
	}
	if got := ix.Phrase("shrinking"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("single-term phrase = %v", got)
	}
}

func TestRemove(t *testing.T) {
	ix := New()
	ix.Add(1, "alpha beta")
	ix.Add(2, "beta gamma")
	ix.Remove(1)
	if got := lookupIDs(ix, "alpha"); got != nil {
		t.Fatalf("alpha survives remove: %v", got)
	}
	if got := lookupIDs(ix, "beta"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("beta postings wrong after remove: %v", got)
	}
	if ix.Docs() != 1 {
		t.Fatalf("docs = %d", ix.Docs())
	}
	// Removing again is a no-op.
	ix.Remove(1)
	if ix.Docs() != 1 {
		t.Fatalf("double remove changed docs: %d", ix.Docs())
	}
}

func TestDFAndStats(t *testing.T) {
	ix := New()
	ix.Add(1, "x y")
	ix.Add(2, "x")
	ix.Add(3, "x y z")
	if ix.DF("x") != 3 || ix.DF("y") != 2 || ix.DF("z") != 1 || ix.DF("w") != 0 {
		t.Fatalf("DF: x=%d y=%d z=%d w=%d", ix.DF("x"), ix.DF("y"), ix.DF("z"), ix.DF("w"))
	}
	if ix.Terms() != 3 {
		t.Fatalf("terms = %d", ix.Terms())
	}
	if ix.Docs() != 3 {
		t.Fatalf("docs = %d", ix.Docs())
	}
}

func TestIDsSortedEvenWithOutOfOrderAdds(t *testing.T) {
	ix := New()
	ids := []uint64{50, 10, 90, 30, 70, 20}
	for _, id := range ids {
		ix.Add(id, "common")
	}
	got := lookupIDs(ix, "common")
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("postings unsorted: %v", got)
	}
	if len(got) != len(ids) {
		t.Fatalf("lost postings: %v", got)
	}
}

// Property: Lookup agrees with a naive reference implementation over
// random tiny corpora.
func TestQuickAgainstNaiveSearch(t *testing.T) {
	words := []string{"engine", "budget", "shuttle", "anomaly", "gap", "risk", "plan"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		docs := make(map[uint64]string)
		ix := New()
		for id := uint64(1); id <= uint64(n%20)+2; id++ {
			k := r.Intn(5) + 1
			var sb strings.Builder
			for i := 0; i < k; i++ {
				sb.WriteString(words[r.Intn(len(words))])
				sb.WriteByte(' ')
			}
			docs[id] = sb.String()
			ix.Add(id, docs[id])
		}
		for _, w := range words {
			var want []uint64
			for id, text := range docs {
				if strings.Contains(text, w) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := lookupIDs(ix, w)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: And(a b) == intersection of Lookup(a) and Lookup(b).
func TestQuickAndIsIntersection(t *testing.T) {
	f := func(assign []uint8) bool {
		ix := New()
		for i, mask := range assign {
			id := uint64(i + 1)
			var parts []string
			if mask&1 != 0 {
				parts = append(parts, "aterm")
			}
			if mask&2 != 0 {
				parts = append(parts, "bterm")
			}
			if len(parts) > 0 {
				ix.Add(id, strings.Join(parts, " "))
			}
		}
		a, b := lookupIDs(ix, "aterm"), lookupIDs(ix, "bterm")
		inA := make(map[uint64]bool)
		for _, id := range a {
			inA[id] = true
		}
		var want []uint64
		for _, id := range b {
			if inA[id] {
				want = append(want, id)
			}
		}
		got := andIDs(ix, "aterm bterm")
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAddLookup(t *testing.T) {
	ix := New()
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				ix.Add(uint64(w*1000+i), fmt.Sprintf("worker %d doc %d shared", w, i))
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 200; i++ {
				lookupIDs(ix, "shared")
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(lookupIDs(ix, "shared")); got != 800 {
		t.Fatalf("shared postings = %d", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	ix := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Add(uint64(i), "the quick brown fox jumps over the lazy dog near the riverbank")
	}
}

func BenchmarkLookup(b *testing.B) {
	ix := New()
	for i := 0; i < 50000; i++ {
		ix.Add(uint64(i), fmt.Sprintf("document %d mentions shuttle and engine terms", i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lookupIDs(ix, "shuttle")
	}
}

// TestBlockSealAndSkip drives one term through many sealed blocks and
// checks that lookups and skip-driven intersections stay exact.
func TestBlockSealAndSkip(t *testing.T) {
	ix := New()
	const n = 1000
	for id := uint64(1); id <= n; id++ {
		text := "common"
		if id%97 == 0 {
			text = "common rare"
		}
		ix.Add(id, text)
	}
	st := ix.Stats()
	if st.Blocks < n/blockSize-1 {
		t.Fatalf("expected sealed blocks, stats = %+v", st)
	}
	if got := lookupIDs(ix, "common"); len(got) != n || got[0] != 1 || got[n-1] != n {
		t.Fatalf("Lookup(common) len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
	and := andIDs(ix, "common rare")
	if len(and) != n/97 {
		t.Fatalf("And(common rare) = %d ids, want %d", len(and), n/97)
	}
	for _, id := range and {
		if id%97 != 0 {
			t.Fatalf("unexpected intersection id %d", id)
		}
	}
	if st.CompressionRatio < 2 {
		t.Fatalf("dense ascending ids should compress >2x, got %.2f (%+v)", st.CompressionRatio, st)
	}
}

// TestOutOfOrderTailOverlap inserts ids below already-sealed blocks so
// the tail overlaps sealed ranges, then forces the overflow rebuild.
func TestOutOfOrderTailOverlap(t *testing.T) {
	ix := New()
	// Seal several blocks of high ids first.
	for id := uint64(10000); id < 10000+5*blockSize; id++ {
		ix.Add(id, "w")
	}
	// Now add low ids: they land in the tail, which can never seal past
	// the existing blocks; growing it past 4*blockSize forces a rebuild.
	for id := uint64(1); id <= 5*blockSize; id++ {
		ix.Add(id, "w")
	}
	got := lookupIDs(ix, "w")
	if len(got) != 10*blockSize {
		t.Fatalf("len = %d, want %d", len(got), 10*blockSize)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("ids unsorted after overlap rebuild")
	}
	if got[0] != 1 || got[len(got)-1] != 10000+5*blockSize-1 {
		t.Fatalf("range wrong: first=%d last=%d", got[0], got[len(got)-1])
	}
}

// TestTombstoneCompaction removes most of a sealed term and checks the
// tombstones are folded away while queries stay exact.
func TestTombstoneCompaction(t *testing.T) {
	ix := New()
	const n = 600
	for id := uint64(1); id <= n; id++ {
		ix.Add(id, "victim keeper")
	}
	for id := uint64(1); id <= n; id++ {
		if id%3 != 0 {
			ix.Remove(id)
		}
	}
	st := ix.Stats()
	if st.DeadIDs > n/4 {
		t.Fatalf("tombstones not compacted: %+v", st)
	}
	got := lookupIDs(ix, "victim")
	if len(got) != n/3 {
		t.Fatalf("len = %d, want %d", len(got), n/3)
	}
	for _, id := range got {
		if id%3 != 0 {
			t.Fatalf("removed id %d still visible", id)
		}
	}
	if df := ix.DF("keeper"); df != n/3 {
		t.Fatalf("DF = %d, want %d", df, n/3)
	}
}

// TestReinsertTombstonedID removes a block-resident id and re-adds it:
// the tombstone must be revived, not duplicated.
func TestReinsertTombstonedID(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 2*blockSize; id++ {
		ix.Add(id, "stable flux")
	}
	ix.Remove(7) // inside the first sealed block
	if got := lookupIDs(ix, "flux"); len(got) != 2*blockSize-1 {
		t.Fatalf("after remove: %d ids", len(got))
	}
	ix.Add(7, "stable flux phoenix")
	got := lookupIDs(ix, "flux")
	if len(got) != 2*blockSize {
		t.Fatalf("after re-add: %d ids, want %d", len(got), 2*blockSize)
	}
	seen := 0
	for _, id := range got {
		if id == 7 {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("id 7 appears %d times", seen)
	}
	if got := lookupIDs(ix, "phoenix"); len(got) != 1 || got[0] != 7 {
		t.Fatalf("phoenix = %v", got)
	}
	if got := andIDs(ix, "stable flux phoenix"); len(got) != 1 || got[0] != 7 {
		t.Fatalf("And over revived id = %v", got)
	}
}

// TestPhraseAcrossBlocks checks phrase adjacency still works when the
// candidate ids live in sealed blocks.
func TestPhraseAcrossBlocks(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 3*blockSize; id++ {
		if id%2 == 0 {
			ix.Add(id, "liquid oxygen tank")
		} else {
			ix.Add(id, "oxygen liquid reversed")
		}
	}
	got := ix.Phrase("liquid oxygen")
	if len(got) != 3*blockSize/2 {
		t.Fatalf("Phrase = %d ids, want %d", len(got), 3*blockSize/2)
	}
	for _, id := range got {
		if id%2 != 0 {
			t.Fatalf("wrong-order doc %d matched phrase", id)
		}
	}
}

// TestCJKPhraseSearch: Han unigrams make unsegmented CJK text
// searchable via phrase adjacency.
func TestCJKPhraseSearch(t *testing.T) {
	ix := New()
	ix.Add(1, "東京の報告")
	ix.Add(2, "京東の報告") // reversed ideographs
	if got := ix.Phrase("東京"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Phrase(東京) = %v", got)
	}
	if got := lookupIDs(ix, "東"); len(got) != 2 {
		t.Fatalf("Lookup(東) = %v", got)
	}
}
