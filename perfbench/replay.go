package main

// Layer replays for the traced run.  After a sampled request completes,
// the client repeats the calls the /xdb handler makes, one layer at a
// time, each in a span under the request's root span: parse, execute
// (through the result cache, as the handler does), the store calls the
// plan makes, the text-index lookup behind them when the plan uses the
// text index, serialization and, for the stylesheet share, the
// transform.

import (
	"io"
	"sync"

	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/textindex"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

// layerTotals are the exact work counts the replays observe.
type layerTotals struct {
	queries    int   // replays run
	sections   int   // sections (or documents) the store calls returned
	textQuery  int   // replays whose plan uses the text index
	ids        int   // ids the text index yielded to those replays
	idSections int   // sections (or documents) those replays returned
	respBytes  int64 // response body bytes of sampled requests
}

type layerCounts struct {
	mu sync.Mutex
	t  layerTotals // guarded by mu
}

func (lc *layerCounts) totals() layerTotals {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.t
}

// replayRead replays query q under root.
func replayRead(tr *tracer, engine *xdb.Engine, root, req uint64, q query, respLen int, lc *layerCounts) error {
	var pq xdb.Query
	var err error
	tr.timed(root, req, "xdb.parse", func() { pq, err = xdb.Parse(q.raw) })
	if err != nil {
		return err
	}
	var res *xdb.Result
	tr.timed(root, req, "xdb.execute", func() { res, err = engine.Execute(pq) })
	if err != nil {
		return err
	}
	n, ids, err := kernel(tr, root, req, engine.Store(), pq)
	if err != nil {
		return err
	}
	tr.timed(root, req, "sgml.write", func() { err = sgml.WriteIndent(io.Discard, res.XML()) })
	if err != nil {
		return err
	}
	if q.xslt {
		sheet := engine.Stylesheet(stylesheetName)
		tr.timed(root, req, "xslt.transform", func() { _, err = sheet.Transform(res.XML()) })
		if err != nil {
			return err
		}
	}
	lc.mu.Lock()
	lc.t.queries++
	lc.t.sections += n
	lc.t.respBytes += int64(respLen)
	if ids >= 0 {
		lc.t.textQuery++
		lc.t.ids += ids
		lc.t.idSections += n
	}
	lc.mu.Unlock()
	return nil
}

// kernel replays the store calls the engine's planner
// (xdb.Engine.executeUncached) makes for q, branch by branch, in an
// xmlstore.search span.  Where the plan uses the text index it also
// replays that lookup in a textindex.iter span: a drain of the
// AndIter the kernel iterates, or the Phrase lookup a phrase without a
// context starts from.  It returns how many sections (or documents) the
// store calls produced and how many ids the text index yielded, -1 when
// the plan does not touch the text index.  Plans with a residual filter
// (context-prefix+content, phrase+context) count every section the
// uncapped context search materialised.
func kernel(tr *tracer, root, req uint64, s *xmlstore.Store, q xdb.Query) (n, ids int, err error) {
	search := func(fn func() (int, error)) {
		tr.timed(root, req, "xmlstore.search", func() { n, err = fn() })
	}
	sections := func(secs []xmlstore.Section, err error) (int, error) { return len(secs), err }
	ids = -1
	drain := func() {
		tr.timed(root, req, "textindex.iter", func() {
			ids = 0
			it := s.ContentIndex().AndIter(q.Content)
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				ids++
			}
		})
	}
	switch {
	case q.XPath != "":
		search(func() (int, error) { return xpathDocs(s, q) })
		if q.Content != "" {
			drain()
		}
	case q.DocsOnly:
		search(func() (int, error) {
			docs, err := s.ContentSearchDocsN(q.Content, q.Limit)
			return len(docs), err
		})
		drain()
	case q.ContextPrefix && q.Content == "":
		search(func() (int, error) { return sections(s.ContextPrefixSearchN(q.Context, q.Limit)) })
	case q.ContextPrefix:
		search(func() (int, error) { return sections(s.ContextPrefixSearch(q.Context)) })
	case q.Phrase && q.Context == "":
		var hits []uint64
		tr.timed(root, req, "textindex.iter", func() { hits = s.ContentIndex().Phrase(q.Content) })
		ids = len(hits)
		search(func() (int, error) { return phraseSections(s, hits, q.Limit) })
	case q.Phrase:
		search(func() (int, error) { return sections(s.ContextSearch(q.Context)) })
	case q.Context == "":
		search(func() (int, error) { return sections(s.ContentSearchN(q.Content, q.Limit)) })
		drain()
	case q.Content == "":
		search(func() (int, error) { return sections(s.ContextSearchN(q.Context, q.Limit)) })
	default:
		search(func() (int, error) { return sections(s.SearchN(q.Context, q.Content, q.Limit)) })
		if !contextDrives(s, q) {
			drain()
		}
	}
	return n, ids, err
}

// contextDrives repeats SearchN's choice of driving side: the context
// index drives when the heading is no more frequent than the rarest
// content term.
func contextDrives(s *xmlstore.Store, q xdb.Query) bool {
	df := -1
	for _, tok := range textindex.Tokenize(q.Content) {
		if d := s.ContentIndex().DF(tok.Term); df < 0 || d < df {
			df = d
		}
	}
	if df < 0 {
		df = 0
	}
	return s.ContextCount(q.Context) <= df
}

// phraseSections repeats the engine's resolve of phrase hits to their
// distinct governing sections, stopping at limit.
func phraseSections(s *xmlstore.Store, hits []uint64, limit int) (int, error) {
	seen := map[ordbms.RowID]bool{}
	n := 0
	for _, h := range hits {
		node, err := s.FetchNode(ordbms.RowIDFromUint64(h))
		if err == ordbms.ErrRecordDeleted {
			continue
		}
		if err != nil {
			return n, err
		}
		ctx, err := s.ContextFor(node)
		if err == ordbms.ErrRecordDeleted || (err == nil && (ctx == nil || seen[ctx.RowID])) {
			continue
		}
		if err != nil {
			return n, err
		}
		seen[ctx.RowID] = true
		if _, err := s.SectionOf(ctx); err == ordbms.ErrRecordDeleted {
			continue
		} else if err != nil {
			return n, err
		}
		if n++; limit > 0 && n >= limit {
			break
		}
	}
	return n, nil
}

// xpathDocs repeats the xpath plan's store work: the index prefilter
// to candidate documents, then a Reconstruct of each.  It returns the
// number of documents reconstructed.
func xpathDocs(s *xmlstore.Store, q xdb.Query) (int, error) {
	var docs []uint64
	switch {
	case q.Content != "":
		infos, err := s.ContentSearchDocs(q.Content)
		if err != nil {
			return 0, err
		}
		for _, d := range infos {
			docs = append(docs, d.DocID)
		}
	case q.Context != "":
		search := s.ContextSearch
		if q.ContextPrefix {
			search = s.ContextPrefixSearch
		}
		secs, err := search(q.Context)
		if err != nil {
			return 0, err
		}
		seen := map[uint64]bool{}
		for _, sec := range secs {
			if seen[sec.DocID] {
				continue
			}
			seen[sec.DocID] = true
			if _, err := s.Document(sec.DocID); xmlstore.IsGone(err) {
				continue
			} else if err != nil {
				return 0, err
			}
			docs = append(docs, sec.DocID)
		}
	default:
		infos, err := s.Documents()
		if err != nil {
			return 0, err
		}
		for _, d := range infos {
			docs = append(docs, d.DocID)
		}
	}
	n := 0
	for _, id := range docs {
		if _, err := s.Reconstruct(id); xmlstore.IsGone(err) {
			continue
		} else if err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
