package textindex

import (
	"fmt"
	"testing"
)

// A warm iterator step — block decode into the reused scratch buffer,
// tombstone skip, gallop bookkeeping — must not allocate: the
// whole point of the streaming API is that a capped scan over a huge
// posting list costs the constructor and nothing per id.
func TestIterNextZeroAlloc(t *testing.T) {
	ix := New()
	const docs = 4000
	for id := uint64(1); id <= docs; id++ {
		text := "alpha beta"
		if id%3 == 0 {
			text = "alpha beta gamma"
		}
		ix.Add(id, text)
	}
	// Tombstones exercise the isDead path of every step.
	for id := uint64(5); id <= docs; id += 17 {
		ix.Remove(id)
	}

	cases := map[string]func() *IDIter{
		"LookupIter": func() *IDIter { return ix.LookupIter("alpha") },
		"AndIter":    func() *IDIter { return ix.AndIter("alpha gamma") },
	}
	for name, mk := range cases {
		it := mk()
		// The constructor decodes the first block of each list into the
		// iterator's scratch buffer; steps after that reuse it.
		if _, ok := it.Next(); !ok {
			t.Fatalf("%s: empty stream", name)
		}
		if n := testing.AllocsPerRun(1000, func() { it.Next() }); n != 0 {
			t.Errorf("%s.Next = %.2f allocs/op, want 0", name, n)
		}
	}
}

// The streaming drain of a multi-block intersection must cost a bounded
// handful of allocations total (iterators + scratch buffers), however
// long the lists are.
func TestIterDrainBoundedAllocs(t *testing.T) {
	ix := New()
	for id := uint64(1); id <= 3000; id++ {
		ix.Add(id, fmt.Sprintf("common word%d", id%7))
	}
	n := testing.AllocsPerRun(10, func() {
		it := ix.AndIter("common word3")
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	})
	// Constructor cost only — tokenizer scratch, captured views, two
	// iters and their decode buffers — constant in the list length
	// (3000 ids would mean thousands of allocs if the drain leaked
	// per-id or per-block work).
	if n > 32 {
		t.Errorf("full drain = %.1f allocs, want constant constructor cost", n)
	}
}
