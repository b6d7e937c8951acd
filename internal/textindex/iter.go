package textindex

// Streaming query iterators — the index's one read API.
//
// Every query result streams out of an IDIter one id at a time:
// LookupIter for a single term, AndIter for the intersection of a
// query's terms, and Phrase (which filters AndIter's candidates by
// token adjacency).  Views of the posting lists are captured under a
// brief RLock and iterated outside it, so a caller that stops early —
// a section scan capped by limit=, a decode loop reusing one chunk
// buffer — never pays for the ids it does not consume, and holding an
// iterator open never blocks writers.

import (
	"sort"
)

// IDIter streams the ids of an intersection query in ascending order.
// The zero value is an exhausted iterator.  An IDIter is single-use and
// not safe for concurrent use; it reads immutable view storage, so
// holding one open never blocks writers.
type IDIter struct {
	its []*iter // its[0] (the smallest list) drives
}

// Next returns the next result id, or false when the stream is done.
//
// netmarkvet:hotpath
func (x *IDIter) Next() (uint64, bool) {
	if x == nil || len(x.its) == 0 {
		return 0, false
	}
	return stepIntersect(x.its)
}

// appendAll drains the iterator onto dst.
func (x *IDIter) appendAll(dst []uint64) []uint64 {
	for id, ok := x.Next(); ok; id, ok = x.Next() {
		dst = append(dst, id)
	}
	return dst
}

// stepIntersect emits the next id present in every iterator.  its[0] is
// the driver (smallest list); the rest are sought by block maxID, so
// only candidate blocks decode — a rare term intersected against a
// stop-word-sized list costs O(|rare| log |blocks|) block probes, not a
// decode of the whole long list.  When an iterator disagrees, the
// driver gallops straight to the blocker's head.
func stepIntersect(its []*iter) (uint64, bool) {
	drv := its[0]
outer:
	for {
		x, ok := drv.head()
		if !ok {
			return 0, false
		}
		for _, it := range its[1:] {
			it.seekGE(x)
			y, ok := it.head()
			if !ok {
				return 0, false
			}
			if y != x {
				drv.seekGE(y)
				continue outer
			}
		}
		drv.advance()
		return x, true
	}
}

// intersectIter wraps sorted views (smallest first) as a streaming
// intersection.  A single view streams through the same kernel — the
// inner loop is empty.
func intersectIter(views []view) *IDIter {
	if len(views) == 0 {
		return &IDIter{}
	}
	its := make([]*iter, len(views))
	for i, v := range views {
		its[i] = newIter(v)
	}
	return &IDIter{its: its}
}

// LookupIter streams the ids containing term, in ascending order.
func (ix *Index) LookupIter(term string) *IDIter {
	term = normTerm(term)
	if term == "" {
		return &IDIter{}
	}
	ix.mu.RLock()
	var v view
	if got := ix.terms.Get(term); len(got) > 0 {
		v = got[0].view()
	}
	ix.mu.RUnlock()
	if v.live == 0 {
		return &IDIter{}
	}
	return intersectIter([]view{v})
}

// AndIter streams the ids containing every term of the query (the query
// string is tokenized, so AndIter("space shuttle") intersects the two
// terms).  Views are captured under a brief RLock; the skip-driven
// intersection runs outside it, one id per Next call.  The stream
// reflects some interleaving of concurrent writes — the same guarantee
// the traversal kernel gives, since rows can vanish between the index
// probe and the heap fetch anyway.
func (ix *Index) AndIter(query string) *IDIter {
	return intersectIter(ix.andViews(query))
}

// andViews captures one view per query term under a brief RLock and
// sorts them smallest-live first so the rarest term drives.  A query
// with no tokens or with a term absent from the index returns nil —
// the intersection is empty either way.
func (ix *Index) andViews(query string) []view {
	toks := Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	views := make([]view, 0, len(toks))
	ix.mu.RLock()
	for _, tok := range toks {
		got := ix.terms.Get(tok.Term)
		if len(got) == 0 {
			ix.mu.RUnlock()
			return nil
		}
		views = append(views, got[0].view())
	}
	ix.mu.RUnlock()
	sort.Slice(views, func(i, j int) bool { return views[i].live < views[j].live })
	return views
}
