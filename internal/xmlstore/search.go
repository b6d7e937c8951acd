package xmlstore

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
)

// This file implements the paper's query kernel (§2.1.4):
//
//	"The keyword-based context and content search is performed by first
//	querying the text index for the search key.  Each node returned from
//	the index search is then processed based on its designated unique
//	ROWID.  The processing of the node involves traversing up the tree
//	structure via its parent or sibling node until the first context is
//	found. [...] Once a particular CONTEXT is found, traversing back down
//	the tree structure via the sibling node retrieves the corresponding
//	content text."
//
// The implementation keeps the paper's plan but accelerates every stage
// of the cold path: hits resolve to decoded nodes through the node cache
// and batched heap fetches, the upward traversal is an O(1) probe of the
// derived node→governing-CONTEXT index (the pointer-chasing walk remains
// as the fallback and ablation baseline), and sections materialise on a
// bounded worker pool with ordered emit and limit cancellation.

// ContextFor resolves a node to its governing CONTEXT node: the nearest
// preceding heading in document order, at any ancestor level.  Returns
// nil when the node has no governing context (raw XML with no headings).
//
// Text nodes resolve through the derived index maintained at ingest —
// one map probe plus one (usually cached) node fetch, instead of an
// O(siblings × depth) chain of row fetches.  Nodes without an index
// entry fall back to the pointer-chasing walk.
//
// netmarkvet:hotpath
func (s *Store) ContextFor(n *Node) (*Node, error) {
	rid, ok := s.probeContext(n.RowID)
	switch {
	case !ok:
		return s.contextForWalk(n)
	case rid.IsZero():
		return nil, nil
	}
	return s.FetchNode(rid)
}

// probeContext looks a node up in the derived node→governing-CONTEXT
// index.  ok is false when the index is disabled or has no entry for
// the node; a zero rid means the node has no governing context.
//
// netmarkvet:hotpath
func (s *Store) probeContext(node ordbms.RowID) (rid ordbms.RowID, ok bool) {
	if s.ctxIdxOff {
		return ordbms.ZeroRowID, false
	}
	s.ctxIdxMu.RLock()
	rid, ok = s.ctxIdx[node]
	s.ctxIdxMu.RUnlock()
	return rid, ok
}

// contextForWalk is the paper's traversal: scan left across preceding
// siblings, then climb, until the first CONTEXT node.  It is the
// correctness baseline the derived index is tested against.
func (s *Store) contextForWalk(n *Node) (*Node, error) {
	cur := n
	for cur != nil {
		// Scan left across preceding siblings.
		p := cur
		for {
			prev, err := s.PrevSibling(p)
			if err != nil {
				return nil, err
			}
			if prev == nil {
				break
			}
			if prev.Class == sgml.ClassContext {
				return prev, nil
			}
			p = prev
		}
		parent, err := s.Parent(cur)
		if err != nil {
			return nil, err
		}
		if parent != nil && parent.Class == sgml.ClassContext {
			// The hit is inside the heading itself.
			return parent, nil
		}
		cur = parent
	}
	return nil, nil
}

// SectionOf materialises the Section governed by a CONTEXT node:
// the heading plus the text of everything between it and the next
// CONTEXT at the same level (or the end of the parent).  The content is
// assembled into one reused strings.Builder instead of a tree of
// intermediate joins.
func (s *Store) SectionOf(ctx *Node) (Section, error) {
	sec := Section{
		DocID:      ctx.DocID,
		Context:    strings.TrimSpace(ctx.Data),
		ContextRID: ctx.RowID,
	}
	if info, err := s.Document(ctx.DocID); err == nil {
		sec.DocName = info.FileName
		sec.DocTitle = info.Title
	}
	var b strings.Builder
	cur, err := s.NextSibling(ctx)
	if err != nil {
		return sec, err
	}
	for cur != nil && cur.Class != sgml.ClassContext {
		if err := s.appendSubtreeText(cur, &b); err != nil {
			return sec, err
		}
		cur, err = s.NextSibling(cur)
		if err != nil {
			return sec, err
		}
	}
	sec.Content = b.String()
	return sec, nil
}

// appendSubtreeText walks the subtree under root in document order by
// chasing child/sibling links iteratively (an explicit stack of pending
// siblings instead of recursion-with-joins), appending each non-empty
// trimmed text run to b, space-separated.
func (s *Store) appendSubtreeText(root *Node, b *strings.Builder) error {
	var stack []*Node
	cur := root
	for cur != nil {
		if cur.Class == sgml.ClassText {
			if t := strings.TrimSpace(cur.Data); t != "" {
				if b.Len() > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t)
			}
		}
		// The next sibling comes after cur's whole subtree; queue it —
		// except for root, whose siblings are outside the subtree.
		if cur != root && !cur.NextRowID.IsZero() {
			sib, err := s.FetchNode(cur.NextRowID)
			if err != nil {
				return err
			}
			stack = append(stack, sib)
		}
		if !cur.ChildRowID.IsZero() {
			ch, err := s.FetchNode(cur.ChildRowID)
			if err != nil {
				return err
			}
			cur = ch
			continue
		}
		if n := len(stack); n > 0 {
			cur = stack[n-1]
			stack = stack[:n-1]
		} else {
			cur = nil
		}
	}
	return nil
}

// subtreeText collects the text beneath a node (physical hops only).
func (s *Store) subtreeText(n *Node) (string, error) {
	var b strings.Builder
	if err := s.appendSubtreeText(n, &b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ContextSearch returns the sections whose heading matches the query
// (case- and whitespace-insensitive): the paper's Context=Introduction.
func (s *Store) ContextSearch(heading string) ([]Section, error) {
	return s.ContextSearchN(heading, 0)
}

// ContextSearchN is ContextSearch with a result cap pushed into the
// traversal: section materialisation stops as soon as limit sections
// exist (limit <= 0 means unlimited), so limit=50 over a huge corpus
// touches 50 sections, not all of them.
func (s *Store) ContextSearchN(heading string, limit int) ([]Section, error) {
	out := sectionSink{limit: limit}
	err := s.walkContext(heading, false, limit, out.add)
	return out.secs, err
}

// ContextPrefixSearch matches headings by prefix (Context=Tech*).
func (s *Store) ContextPrefixSearch(prefix string) ([]Section, error) {
	return s.ContextPrefixSearchN(prefix, 0)
}

// ContextPrefixSearchN is ContextPrefixSearch with the limit pushed all
// the way into candidate collection (see walkContext), so
// Context=A*&limit=1 over a million headings holds one rowid, not a
// million.
func (s *Store) ContextPrefixSearchN(prefix string, limit int) ([]Section, error) {
	out := sectionSink{limit: limit}
	err := s.walkContext(prefix, true, limit, out.add)
	return out.secs, err
}

// WalkContext streams the sections whose heading matches heading (case-
// and whitespace-insensitive; by prefix when prefix is set) to fn in
// physical order, until fn returns false.  It is the one context-driven
// plan: callers that filter sections do it in fn, so a filtered, capped
// query stops traversing as soon as fn has enough.
func (s *Store) WalkContext(heading string, prefix bool, fn func(Section) bool) error {
	return s.walkContext(heading, prefix, 0, fn)
}

// walkContext snapshots the matching CONTEXT rowids under ctxMu, sorts
// them into physical order and runs them through the section kernel.
// bound > 0 promises that fn accepts every section and stops after
// bound of them, so only the bound physically smallest candidates are
// kept (a bounded max-heap) instead of a copy of every matching rowid.
// Only a candidate deleted between the snapshot and materialisation
// can make a bounded walk shorter than an unbounded one would have
// been.
func (s *Store) walkContext(heading string, prefix bool, bound int, fn func(Section) bool) error {
	key := normalizeContext(heading)
	var rids []ordbms.RowID
	var smallest ridBound
	collect := func(vals []ordbms.RowID) {
		if bound <= 0 {
			rids = append(rids, vals...)
			return
		}
		for _, rid := range vals {
			smallest.push(rid, bound)
		}
	}
	s.ctxMu.RLock()
	if prefix {
		s.contexts.AscendPrefixFunc(key,
			func(k string) bool { return strings.HasPrefix(k, key) },
			func(_ string, vals []ordbms.RowID) bool {
				collect(vals)
				return true
			})
	} else {
		collect(s.contexts.Get(key))
	}
	s.ctxMu.RUnlock()
	if bound > 0 {
		rids = smallest.rids
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Less(rids[j]) })
	return s.forEachSection(func() (ordbms.RowID, bool) {
		if len(rids) == 0 {
			return ordbms.ZeroRowID, false
		}
		rid := rids[0]
		rids = rids[1:]
		return rid, true
	}, false, fn)
}

// sectionSink collects streamed sections up to limit (<= 0: all).
type sectionSink struct {
	secs  []Section
	limit int
}

// add appends sec and reports whether the sink wants more.
func (k *sectionSink) add(sec Section) bool {
	k.secs = append(k.secs, sec)
	return k.limit <= 0 || len(k.secs) < k.limit
}

// ridBound keeps the k physically-smallest RowIDs pushed into it, as a
// max-heap rooted at rids[0].
type ridBound struct {
	rids []ordbms.RowID
}

func (h *ridBound) push(rid ordbms.RowID, k int) {
	if len(h.rids) < k {
		h.rids = append(h.rids, rid)
		i := len(h.rids) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !h.rids[p].Less(h.rids[i]) {
				break
			}
			h.rids[p], h.rids[i] = h.rids[i], h.rids[p]
			i = p
		}
		return
	}
	if !rid.Less(h.rids[0]) {
		return
	}
	h.rids[0] = rid
	i, n := 0, len(h.rids)
	for {
		big, l, r := i, 2*i+1, 2*i+2
		if l < n && h.rids[big].Less(h.rids[l]) {
			big = l
		}
		if r < n && h.rids[big].Less(h.rids[r]) {
			big = r
		}
		if big == i {
			return
		}
		h.rids[big], h.rids[i] = h.rids[i], h.rids[big]
		i = big
	}
}

// sectionWorkers picks the materialisation fan-out for n candidates.
func (s *Store) sectionWorkers(n int) int {
	if n < 4 {
		return 1
	}
	w := s.queryWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// Candidate chunks start at firstChunk rowids and double up to
// sectionChunk: a capped query that its first candidates satisfy
// fetches few more nodes than it emits, and a long scan still batches
// its fetches and bounds its bookkeeping per chunk, not per corpus.
const (
	firstChunk   = 16
	sectionChunk = 512
)

// sectionOut is one materialised (or skipped, or failed) section slot.
type sectionOut struct {
	sec  Section
	err  error
	skip bool
}

// forEachSection is the one hit-to-section kernel (§2.1.4) beneath
// every plan.  next streams candidate rowids; forEachNodeChunk resolves
// them a chunk at a time to decoded nodes.  With climb set they are
// text hits: resolveSectionTask maps each to its governing context (one
// map probe of the derived index, no materialisation) and duplicates of
// an already-seen section are dropped, so sections come out in
// first-hit order.  Without climb they are CONTEXT nodes and each is
// its own section.  The distinct sections of a chunk then materialise
// on the worker pool with ordered emit, and a false return from fn
// cancels the remaining work — so duplicate hits on one section cost a
// map probe, never a second traversal, and the expensive stage
// parallelises over exactly the distinct sections.
func (s *Store) forEachSection(next func() (ordbms.RowID, bool), climb bool, fn func(Section) bool) error {
	seen := make(map[ordbms.RowID]bool)
	var tasks []sectionTask
	return s.forEachNodeChunk(next, func(nodes []*Node) (bool, error) {
		tasks = tasks[:0]
		for _, node := range nodes {
			if node == nil {
				continue // deleted between index probe and fetch
			}
			if !climb {
				tasks = append(tasks, sectionTask{ctxRID: node.RowID, ctx: node})
				continue
			}
			task, key, skip, err := s.resolveSectionTask(node)
			if err != nil {
				return false, err
			}
			if skip || seen[key] {
				continue
			}
			seen[key] = true
			tasks = append(tasks, task)
		}
		return s.emitSectionTasks(tasks, fn)
	})
}

// forEachNodeChunk drains next a chunk at a time (see firstChunk)
// through one reused buffer and resolves each chunk to decoded nodes
// with one node-cache-aware batched fetch (nil for a row deleted since
// the probe), handing them to fn until fn reports stopped.  A capped scan
// over a huge posting list never materialises the full hit list, only
// the current chunk.
func (s *Store) forEachNodeChunk(next func() (ordbms.RowID, bool), fn func([]*Node) (stopped bool, err error)) error {
	var chunk []ordbms.RowID
	for size := firstChunk; ; size = min(2*size, sectionChunk) {
		chunk = chunk[:0]
		for len(chunk) < size {
			rid, ok := next()
			if !ok {
				break
			}
			chunk = append(chunk, rid)
		}
		if len(chunk) == 0 {
			return nil
		}
		nodes, err := s.fetchNodesBatch(chunk)
		if err != nil {
			return err
		}
		if stopped, err := fn(nodes); err != nil || stopped {
			return err
		}
	}
}

// hits adapts a text-index iterator to the kernel's rowid stream.
func hits(it *textindex.IDIter) func() (ordbms.RowID, bool) {
	return func() (ordbms.RowID, bool) {
		h, ok := it.Next()
		return ordbms.RowIDFromUint64(h), ok
	}
}

// ContentSearchN returns the sections containing every term of the
// query — the paper's Content=Shuttle — with the limit (<= 0:
// unlimited) pushed into the traversal kernel: the walk from text hits
// to governing contexts stops once limit sections are materialised.
// Hits are grouped by their governing context so each section appears
// once.
func (s *Store) ContentSearchN(query string, limit int) ([]Section, error) {
	out := sectionSink{limit: limit}
	err := s.forEachSection(hits(s.content.AndIter(query)), true, out.add)
	return out.secs, err
}

// PhraseSearchN returns the sections containing the query's terms
// adjacently and in order (Content="technology gap"), through the same
// kernel as ContentSearchN: a phrase hit resolves to its governing
// section exactly as a keyword hit does, heading-less fallback
// included.  limit <= 0 means unlimited.
func (s *Store) PhraseSearchN(phrase string, limit int) ([]Section, error) {
	ids := s.content.Phrase(phrase)
	out := sectionSink{limit: limit}
	err := s.forEachSection(func() (ordbms.RowID, bool) {
		if len(ids) == 0 {
			return ordbms.ZeroRowID, false
		}
		rid := ordbms.RowIDFromUint64(ids[0])
		ids = ids[1:]
		return rid, true
	}, true, out.add)
	return out.secs, err
}

// sectionTask names one distinct section to materialise: a governing
// CONTEXT (by rowid, or already fetched by the walk fallback), or a
// heading-less hit to report through fallbackSection.
type sectionTask struct {
	ctxRID ordbms.RowID // governing context (zero = fallback section)
	ctx    *Node        // already-fetched context (context plans, walk fallback)
	hit    *Node        // the hit node (fallback sections only)
}

// resolveSectionTask maps a hit node to its section identity without
// materialising anything: an O(1) probe of the derived index, with the
// pointer-chasing walk as fallback.  key identifies the section for
// dedup (the context rowid, or the hit's own rowid for heading-less
// documents).
//
// netmarkvet:hotpath
func (s *Store) resolveSectionTask(node *Node) (task sectionTask, key ordbms.RowID, skip bool, err error) {
	if rid, ok := s.probeContext(node.RowID); ok {
		if rid.IsZero() {
			return sectionTask{hit: node}, node.RowID, false, nil
		}
		return sectionTask{ctxRID: rid}, rid, false, nil
	}
	ctx, werr := s.contextForWalk(node)
	if werr != nil {
		if werr == ordbms.ErrRecordDeleted {
			return sectionTask{}, ordbms.ZeroRowID, true, nil // document mid-delete
		}
		return sectionTask{}, ordbms.ZeroRowID, false, werr
	}
	if ctx == nil {
		return sectionTask{hit: node}, node.RowID, false, nil
	}
	return sectionTask{ctxRID: ctx.RowID, ctx: ctx}, ctx.RowID, false, nil
}

// materialiseSectionTask builds the section for one task.
func (s *Store) materialiseSectionTask(task sectionTask) sectionOut {
	ctx := task.ctx
	if ctx == nil && !task.ctxRID.IsZero() {
		var err error
		if ctx, err = s.FetchNode(task.ctxRID); err != nil {
			if err == ordbms.ErrRecordDeleted {
				return sectionOut{skip: true}
			}
			return sectionOut{err: err}
		}
	}
	var sec Section
	var err error
	if ctx != nil {
		sec, err = s.SectionOf(ctx)
	} else {
		// No governing heading (raw XML): report the parent element's
		// subtree as the section.
		sec, err = s.fallbackSection(task.hit)
	}
	if err != nil {
		if err == ordbms.ErrRecordDeleted {
			return sectionOut{skip: true}
		}
		return sectionOut{err: err}
	}
	return sectionOut{sec: sec}
}

// emitSectionTasks materialises the distinct sections of one chunk —
// serially for a handful of tasks or a serial store, otherwise on a
// bounded worker pool — and feeds the non-skipped ones to fn in task
// order, exactly the order a serial walk would produce.  stopped
// reports that fn returned false; remaining work is cancelled (workers
// check the stop flag before claiming their next task, so overshoot is
// bounded by the pool size).
func (s *Store) emitSectionTasks(tasks []sectionTask, fn func(Section) bool) (stopped bool, err error) {
	n := len(tasks)
	materialise := func(i int) sectionOut { return s.materialiseSectionTask(tasks[i]) }
	workers := s.sectionWorkers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			o := materialise(i)
			if o.skip {
				continue
			}
			if o.err != nil {
				return false, o.err
			}
			if !fn(o.sec) {
				return true, nil
			}
		}
		return false, nil
	}
	outs := make([]sectionOut, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	next.Store(-1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				outs[i] = materialise(i)
				close(done[i])
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)
	for i := 0; i < n; i++ {
		<-done[i]
		o := &outs[i]
		if o.skip {
			continue
		}
		if o.err != nil {
			return false, o.err
		}
		if !fn(o.sec) {
			return true, nil
		}
	}
	return false, nil
}

// fallbackSection builds a section for a text hit with no heading.
func (s *Store) fallbackSection(n *Node) (Section, error) {
	parent, err := s.Parent(n)
	if err != nil {
		return Section{}, err
	}
	scope := n
	if parent != nil {
		scope = parent
	}
	txt, err := s.subtreeText(scope)
	if err != nil {
		return Section{}, err
	}
	sec := Section{DocID: n.DocID, Content: txt, ContextRID: scope.RowID}
	if info, err := s.Document(n.DocID); err == nil {
		sec.DocName = info.FileName
		sec.DocTitle = info.Title
	}
	return sec, nil
}

// ContentSearchDocs returns the distinct documents containing the query —
// the paper's "a content query such as Content=Shuttle will return all
// documents that contain the term 'Shuttle' anywhere in the document".
func (s *Store) ContentSearchDocs(query string) ([]*DocInfo, error) {
	return s.ContentSearchDocsN(query, 0)
}

// ContentSearchDocsN is ContentSearchDocs with the limit pushed down:
// the hit scan stops after limit distinct documents.  Hits arrive in
// physical RowID order — usually, but not necessarily, ingestion order
// (page reuse after deletes can reorder) — so a capped query returns
// *some* limit matching documents, sorted by DocID, not a guaranteed
// lowest-DocID prefix.
func (s *Store) ContentSearchDocsN(query string, limit int) ([]*DocInfo, error) {
	seen := make(map[uint64]bool)
	var out []*DocInfo
	err := s.forEachNodeChunk(hits(s.content.AndIter(query)), func(nodes []*Node) (bool, error) {
		for _, node := range nodes {
			if node == nil || seen[node.DocID] {
				continue
			}
			seen[node.DocID] = true
			info, err := s.Document(node.DocID)
			if err != nil {
				if IsGone(err) {
					// The DOC row vanished between the text hit and this
					// lookup: the document is mid-delete, skip it.
					continue
				}
				return false, err
			}
			out = append(out, info)
			if limit > 0 && len(out) >= limit {
				return true, nil
			}
		}
		return false, nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DocID < out[j].DocID })
	return out, nil
}

// SearchN combines context and content predicates — the paper's
// Context=Technology Gap & Content=Shrinking: "returns the 'Technology
// Gap' contexts (sections) of all documents where the term 'Shrinking'
// occurs within the Technology Gap context".  limit <= 0 means
// unlimited.
//
// The planner picks the cheaper driving side: if the heading is rarer
// than the content terms it drives from the context index and verifies
// terms inside each section; otherwise it drives from the text index and
// filters by governing context.  Both plans produce identical results
// (asserted by tests); the choice only affects cost.  Either way the
// limit is pushed into the walk, so a capped query stops traversing as
// soon as limit matching sections exist.
func (s *Store) SearchN(heading, query string, limit int) ([]Section, error) {
	switch {
	case heading == "" && query == "":
		return nil, nil
	case heading == "":
		return s.ContentSearchN(query, limit)
	case query == "":
		return s.ContextSearchN(heading, limit)
	}
	ctxCount := s.ContextCount(heading)
	contentCost := s.contentDF(query)
	if ctxCount <= contentCost {
		return s.searchDriveContext(heading, query, limit)
	}
	return s.searchDriveContent(heading, query, limit)
}

// contentDF estimates the driving cost of a content query as the smallest
// document frequency among its terms.
func (s *Store) contentDF(query string) int {
	min := -1
	for _, tok := range textindex.Tokenize(query) {
		df := s.content.DF(tok.Term)
		if min < 0 || df < min {
			min = df
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// searchDriveContext: context index drives, content verified per
// section; sections materialise lazily and stop at the limit.
func (s *Store) searchDriveContext(heading, query string, limit int) ([]Section, error) {
	out := sectionSink{limit: limit}
	err := s.walkContext(heading, false, 0, func(sec Section) bool {
		return !sectionContainsAll(sec, query) || out.add(sec)
	})
	return out.secs, err
}

// searchDriveContent: text index drives, context filters; the hit walk
// stops once limit sections pass the filter.
func (s *Store) searchDriveContent(heading, query string, limit int) ([]Section, error) {
	want := normalizeContext(heading)
	out := sectionSink{limit: limit}
	err := s.forEachSection(hits(s.content.AndIter(query)), true, func(sec Section) bool {
		return normalizeContext(sec.Context) != want || out.add(sec)
	})
	return out.secs, err
}

// sectionContainsAll reports whether every query term occurs in the
// section content (word-boundary, case-insensitive — the same tokenizer
// as the index, so both plans agree).
func sectionContainsAll(sec Section, query string) bool {
	terms := textindex.Tokenize(query)
	if len(terms) == 0 {
		return true
	}
	have := make(map[string]bool)
	for _, tok := range textindex.Tokenize(sec.Content) {
		have[tok.Term] = true
	}
	for _, tok := range terms {
		if !have[tok.Term] {
			return false
		}
	}
	return true
}
