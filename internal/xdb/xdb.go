// Package xdb implements XDB Query, "the Netmark query language" [7]:
// context and content search specifications appended to a URL, optionally
// naming an XSLT stylesheet that formats the results into a new document
// (§2.1.3, Fig 7).
//
// Examples from the paper, in this syntax:
//
//	?context=Introduction
//	?content=Shuttle
//	?context=Technology+Gap&content=Shrinking
//	?context=Budget&xslt=ibpd&limit=50
//
// A trailing * on context requests prefix matching; a quoted content
// value requests phrase search.
package xdb

import (
	"bytes"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"netmark/internal/sgml"
	"netmark/internal/xmlstore"
	"netmark/internal/xslt"
)

// Query is a parsed XDB query.
type Query struct {
	// Context is the heading to match ("" = no context predicate).
	Context string
	// ContextPrefix requests prefix matching on the heading.
	ContextPrefix bool
	// Content holds the search terms ("" = no content predicate).
	Content string
	// Phrase requests adjacency (quoted content value).
	Phrase bool
	// DocsOnly requests document-level results (the paper's
	// "Content=Shuttle returns all documents containing 'Shuttle'").
	DocsOnly bool
	// XPath, when set, selects nodes from matching documents with an
	// XPath-lite expression — the paper's "full-fledged XML querying"
	// over any repository.  Combined with context/content predicates the
	// index prefilters the documents; alone it scans every document.
	XPath string
	// XSLT names a registered stylesheet for result composition.
	XSLT string
	// Limit caps the number of results (0 = unlimited).
	Limit int
}

// IsZero reports whether the query has no predicates.
func (q Query) IsZero() bool { return q.Context == "" && q.Content == "" && q.XPath == "" }

// String renders the query in URL form.
func (q Query) String() string { return q.Encode() }

// Encode renders the query as a URL query string.
func (q Query) Encode() string {
	v := url.Values{}
	if q.Context != "" {
		c := q.Context
		if q.ContextPrefix {
			c += "*"
		}
		v.Set("context", c)
	}
	if q.Content != "" {
		c := q.Content
		if q.Phrase {
			c = `"` + c + `"`
		}
		v.Set("content", c)
	}
	if q.DocsOnly {
		v.Set("scope", "document")
	}
	if q.XPath != "" {
		v.Set("xpath", q.XPath)
	}
	if q.XSLT != "" {
		v.Set("xslt", q.XSLT)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	return v.Encode()
}

// Parse parses the query-string form (with or without a leading '?').
// Keys are case-insensitive, matching the paper's Context=/Content=
// examples.
func Parse(raw string) (Query, error) {
	raw = strings.TrimPrefix(strings.TrimSpace(raw), "?")
	if raw == "" {
		return Query{}, fmt.Errorf("xdb: empty query")
	}
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return Query{}, fmt.Errorf("xdb: malformed query: %w", err)
	}
	var q Query
	for key, vs := range vals {
		if len(vs) == 0 {
			continue
		}
		v := vs[len(vs)-1]
		switch strings.ToLower(key) {
		case "context":
			q.Context = strings.TrimSpace(v)
			if strings.HasSuffix(q.Context, "*") {
				q.Context = strings.TrimRight(q.Context, "*")
				q.ContextPrefix = true
			}
		case "content":
			v = strings.TrimSpace(v)
			if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
				v = v[1 : len(v)-1]
				q.Phrase = true
			}
			q.Content = v
		case "scope":
			switch strings.ToLower(v) {
			case "document", "doc", "docs":
				q.DocsOnly = true
			case "section", "sections", "":
			default:
				return Query{}, fmt.Errorf("xdb: unknown scope %q", v)
			}
		case "xpath":
			q.XPath = v
		case "xslt", "stylesheet":
			q.XSLT = v
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Query{}, fmt.Errorf("xdb: bad limit %q", v)
			}
			q.Limit = n
		default:
			return Query{}, fmt.Errorf("xdb: unknown parameter %q", key)
		}
	}
	if q.IsZero() {
		return Query{}, fmt.Errorf("xdb: query needs context=, content= or xpath=")
	}
	return q, nil
}

// Result is the outcome of executing a query.
type Result struct {
	Query    Query
	Sections []xmlstore.Section
	Docs     []*xmlstore.DocInfo
	// Transformed holds the styled document when the query named a
	// stylesheet.
	Transformed *sgml.Node
}

// Len returns the number of result items.
func (r *Result) Len() int {
	if r.Query.DocsOnly {
		return len(r.Docs)
	}
	return len(r.Sections)
}

// XML materialises the result set as a document tree, the wire format
// used by HTTP clients and by databank routers merging multiple sources.
func (r *Result) XML() *sgml.Node {
	root := sgml.NewElement("results")
	root.SetAttr("count", strconv.Itoa(r.Len()))
	if r.Query.DocsOnly {
		for _, d := range r.Docs {
			el := sgml.NewElement("document")
			el.SetAttr("id", strconv.FormatUint(d.DocID, 10))
			el.SetAttr("name", d.FileName)
			el.SetAttr("title", d.Title)
			el.SetAttr("format", d.Format)
			root.AppendChild(el)
		}
		return root
	}
	for _, s := range r.Sections {
		el := sgml.NewElement("result")
		el.SetAttr("doc", s.DocName)
		el.SetAttr("doc-title", s.DocTitle)
		ctx := sgml.NewElement("context")
		ctx.AppendChild(sgml.NewText(s.Context))
		el.AppendChild(ctx)
		content := sgml.NewElement("content")
		content.AppendChild(sgml.NewText(s.Content))
		el.AppendChild(content)
		root.AppendChild(el)
	}
	return root
}

// ParseResultXML decodes the wire format back into a Result (used by the
// databank's remote sources).
func ParseResultXML(src string) (*Result, error) {
	tree, err := sgml.ParseString(src, sgml.ModeXML)
	if err != nil {
		return nil, err
	}
	root := tree.Find("results")
	if root == nil {
		return nil, fmt.Errorf("xdb: no <results> element")
	}
	r := &Result{}
	for _, el := range root.ChildElements() {
		switch el.Name {
		case "result":
			sec := xmlstore.Section{}
			sec.DocName, _ = el.Attr("doc")
			sec.DocTitle, _ = el.Attr("doc-title")
			if c := el.Find("context"); c != nil {
				sec.Context = c.Text()
			}
			if c := el.Find("content"); c != nil {
				sec.Content = c.Text()
			}
			r.Sections = append(r.Sections, sec)
		case "document":
			d := &xmlstore.DocInfo{}
			d.FileName, _ = el.Attr("name")
			d.Title, _ = el.Attr("title")
			d.Format, _ = el.Attr("format")
			if ids, ok := el.Attr("id"); ok {
				if id, err := strconv.ParseUint(ids, 10, 64); err == nil {
					d.DocID = id
				}
			}
			r.Docs = append(r.Docs, d)
			r.Query.DocsOnly = true
		}
	}
	return r, nil
}

// Engine executes XDB queries against a local XML store.
type Engine struct {
	store *xmlstore.Store

	// sheetMu guards sheets: PUT /xslt/{name} registers stylesheets while
	// concurrent queries resolve them.
	sheetMu sync.RWMutex
	// netmarkvet:gen sheetGen
	sheets map[string]*xslt.Stylesheet // guarded by sheetMu
	// sheetGen counts stylesheet registrations.  Cached results of styled
	// queries key on it, so re-registering a sheet invalidates them the
	// same way a store mutation invalidates plain results.
	sheetGen atomic.Uint64

	// cache, when non-nil, memoises query results keyed by (store
	// generation, sheet generation, canonical query).  Set once via
	// EnableCache before the engine serves traffic.
	cache *resultCache
}

// NewEngine wraps a store.
func NewEngine(store *xmlstore.Store) *Engine {
	return &Engine{store: store, sheets: make(map[string]*xslt.Stylesheet)}
}

// Store returns the underlying XML store.
func (e *Engine) Store() *xmlstore.Store { return e.store }

// EnableCache attaches an LRU result cache capped at capacity bytes.
// Call it during setup, before queries run; capacity <= 0 disables
// caching.  Results served from the cache are shared — treat them as
// read-only.
func (e *Engine) EnableCache(capacity int64) {
	if capacity <= 0 {
		e.cache = nil
		return
	}
	e.cache = newResultCache(capacity, e.stampResult, e.stampsFresh)
}

// CacheStats snapshots the result cache counters; ok is false when no
// cache is enabled.
func (e *Engine) CacheStats() (stats CacheStats, ok bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	return e.cache.stats(), true
}

// RegisterStylesheet compiles and names a stylesheet for use via the
// xslt= query parameter.  Safe for use while queries execute.
func (e *Engine) RegisterStylesheet(name, src string) error {
	sheet, err := xslt.ParseStylesheet(src)
	if err != nil {
		return err
	}
	e.sheetMu.Lock()
	e.sheets[name] = sheet
	// Bump before releasing the guard: with the bump outside, a query
	// landing between the unlock and the bump could read the new sheet
	// yet key (or hit) a cached result under the old generation —
	// serving a result styled by the replaced sheet after registration
	// already completed.
	e.sheetGen.Add(1)
	e.sheetMu.Unlock()
	return nil
}

// Stylesheet returns a registered stylesheet, or nil.
func (e *Engine) Stylesheet(name string) *xslt.Stylesheet {
	e.sheetMu.RLock()
	defer e.sheetMu.RUnlock()
	return e.sheets[name]
}

// ExecuteString parses and executes a URL-form query.
func (e *Engine) ExecuteString(raw string) (*Result, error) {
	q, err := Parse(raw)
	if err != nil {
		return nil, err
	}
	return e.Execute(q)
}

// Execute runs a parsed query, consulting the result cache when one is
// enabled.  Cached results are shared across callers and must be treated
// as read-only.
func (e *Engine) Execute(q Query) (*Result, error) {
	res, _, err := e.fetch(q)
	return res, err
}

// ExecuteInto runs a parsed query and writes its XML representation (the
// transformed document when the query named a stylesheet, the result set
// otherwise) to w — the serving layer's path.  Cache hits write the
// memoized response body; uncached results stream without building the
// serialized document in memory.  Execution errors are reported before
// anything is written.
func (e *Engine) ExecuteInto(q Query, w io.Writer) error {
	res, entry, err := e.fetch(q)
	if err != nil {
		return err
	}
	if entry == nil { // no cache, or an oversized result: stream it
		return sgml.WriteIndent(w, resultTree(res))
	}
	body := e.cache.renderedXML(entry, func(r *Result) []byte {
		var buf bytes.Buffer
		sgml.WriteIndent(&buf, resultTree(r))
		return buf.Bytes()
	})
	_, err = w.Write(body)
	return err
}

// fetch executes q through the result cache when one is enabled.  entry
// is the cache entry holding the result, nil when the result is not
// cached (no cache, or too big for it).
func (e *Engine) fetch(q Query) (*Result, *cacheEntry, error) {
	if e.cache == nil {
		res, err := e.executeUncached(q)
		return res, nil, err
	}
	// Snapshot both generations *before* executing: if a mutation lands
	// mid-query, the result is cached under the pre-mutation key, which
	// the mutation's bump has already made unreachable.
	return e.cache.fetch(e.cacheKey(q), func() (*Result, error) { return e.executeUncached(q) })
}

// resultTree picks the document a result serves over the wire.
func resultTree(r *Result) *sgml.Node {
	if r.Transformed != nil {
		return r.Transformed
	}
	return r.XML()
}

// cacheKey builds the invalidation-aware cache key: the stylesheet
// generation and the store fingerprint of exactly the structures the
// query reads prefix the canonical query encoding.
//
// PR 2 keyed on one global store generation, so any write invalidated
// every cached result and mixed read/write traffic ran every query cold.
// The key now folds per-document generations collapsed to the structures
// a query actually depends on: the per-term generations of its content
// terms (each bumped only when a posting for that term is added or
// removed — i.e. when a document containing the term is written or
// deleted) and the per-heading generations of its context predicate.  A
// write to document A therefore leaves cached queries that only touched
// document B reachable; snapshotting the fingerprint *before* executing
// preserves the PR 2 invariant that a result computed across a mutation
// is cached under a key the mutation has already made unreachable.
func (e *Engine) cacheKey(q Query) string {
	var b strings.Builder
	b.Grow(56)
	b.WriteString(strconv.FormatUint(e.sheetGen.Load(), 16))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(e.storeFingerprint(q), 16))
	b.WriteByte('|')
	b.WriteString(q.Encode())
	return b.String()
}

// storeFingerprint folds the generations of the store structures the
// query's plan reads.
func (e *Engine) storeFingerprint(q Query) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime64 }
	if q.XPath != "" {
		// XPath plans reconstruct whole documents and may scan every one;
		// any store mutation can change the answer, so they stay on the
		// global generation.
		mix(e.store.Generation())
		return h
	}
	if q.Content != "" {
		mix(e.store.ContentIndex().QueryGen(q.Content))
	}
	if q.Context != "" {
		if q.ContextPrefix {
			mix(e.store.ContextPrefixGen(q.Context))
		} else {
			mix(e.store.ContextGen(q.Context))
		}
	}
	return h
}

// stampResult records the per-document generations of every document in
// a result, captured at insert time; stampsFresh rechecks them on every
// hit.  This is the belt-and-braces layer under the fingerprint keys: a
// cached entry is served only while none of the documents it actually
// returned has been mutated since.
func (e *Engine) stampResult(r *Result) []docStamp {
	var stamps []docStamp
	seen := make(map[uint64]bool)
	add := func(id uint64) {
		if id == 0 || seen[id] {
			return
		}
		seen[id] = true
		stamps = append(stamps, docStamp{doc: id, gen: e.store.DocGeneration(id)})
	}
	for i := range r.Sections {
		add(r.Sections[i].DocID)
	}
	for _, d := range r.Docs {
		add(d.DocID)
	}
	return stamps
}

func (e *Engine) stampsFresh(stamps []docStamp) bool {
	for _, st := range stamps {
		if e.store.DocGeneration(st.doc) != st.gen {
			return false
		}
	}
	return true
}

// executeUncached evaluates the query against the store: each plan is
// one store call, with the limit pushed into its traversal.
func (e *Engine) executeUncached(q Query) (*Result, error) {
	r := &Result{Query: q}
	var err error
	switch {
	case q.XPath != "":
		r.Sections, err = e.executeXPath(q)
	case q.DocsOnly:
		if q.Content == "" {
			return nil, fmt.Errorf("xdb: document scope requires content=")
		}
		r.Docs, err = e.store.ContentSearchDocsN(q.Content, q.Limit)
	case q.ContextPrefix && q.Content == "":
		r.Sections, err = e.store.ContextPrefixSearchN(q.Context, q.Limit)
	case q.ContextPrefix || q.Phrase && q.Context != "":
		// No index answers these combinations, so the context walk
		// drives and the content predicate filters each section as it
		// streams; the walk stops at the limit.
		err = e.store.WalkContext(q.Context, q.ContextPrefix, func(s xmlstore.Section) bool {
			if sectionMatchesContent(s, q) {
				r.Sections = append(r.Sections, s)
			}
			return q.Limit <= 0 || len(r.Sections) < q.Limit
		})
	case q.Phrase:
		r.Sections, err = e.store.PhraseSearchN(q.Content, q.Limit)
	default:
		r.Sections, err = e.store.SearchN(q.Context, q.Content, q.Limit)
	}
	if err != nil {
		return nil, err
	}
	if q.XSLT != "" {
		sheet := e.Stylesheet(q.XSLT)
		if sheet == nil {
			return nil, fmt.Errorf("xdb: no stylesheet %q registered", q.XSLT)
		}
		if r.Transformed, err = sheet.Transform(r.XML()); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// executeXPath evaluates an XPath-lite expression against matching
// documents — the paper's "full-fledged XML querying ... over any
// information repository".  Content/context predicates prefilter the
// candidate documents through the indexes; a bare xpath= scans all of
// them.  Each selected node becomes a result section whose content is
// the node's serialised XML (elements) or text.
func (e *Engine) executeXPath(q Query) ([]xmlstore.Section, error) {
	path, err := xslt.CompilePath(q.XPath)
	if err != nil {
		return nil, err
	}
	var docs []*xmlstore.DocInfo
	switch {
	case q.Content != "":
		docs, err = e.store.ContentSearchDocs(q.Content)
	case q.Context != "":
		seen := map[uint64]bool{}
		var docErr error
		err = e.store.WalkContext(q.Context, q.ContextPrefix, func(s xmlstore.Section) bool {
			if seen[s.DocID] {
				return true
			}
			seen[s.DocID] = true
			info, derr := e.store.Document(s.DocID)
			switch {
			case derr == nil:
				docs = append(docs, info)
			case !xmlstore.IsGone(derr): // gone: deleted since the section matched
				docErr = derr
			}
			return docErr == nil
		})
		if err == nil {
			err = docErr
		}
	default:
		docs, err = e.store.Documents()
	}
	if err != nil {
		return nil, err
	}
	var out []xmlstore.Section
	for _, d := range docs {
		tree, err := e.store.Reconstruct(d.DocID)
		if err != nil {
			if xmlstore.IsGone(err) {
				// Reconstruct chases physical links; a concurrent delete
				// makes it fail part-way.  The document is going away.
				continue
			}
			return nil, err
		}
		for _, n := range path.Select(tree) {
			content := n.Text()
			if n.Kind == sgml.ElementNode {
				content = sgml.Serialize(n)
			}
			out = append(out, xmlstore.Section{
				DocID:    d.DocID,
				DocName:  d.FileName,
				DocTitle: d.Title,
				Context:  q.XPath,
				Content:  content,
			})
			if q.Limit > 0 && len(out) >= q.Limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// sectionMatchesContent applies a query's content predicate to an
// already-materialised section (used for residual filtering here and in
// the databank's query augmentation).
func sectionMatchesContent(s xmlstore.Section, q Query) bool {
	if q.Content == "" {
		return true
	}
	text := strings.ToLower(s.Content + " " + s.Context)
	if q.Phrase {
		return strings.Contains(text, strings.ToLower(q.Content))
	}
	for _, term := range strings.Fields(strings.ToLower(q.Content)) {
		if !containsWord(text, term) {
			return false
		}
	}
	return true
}

// SectionMatchesContent is the exported residual-filter predicate.
func SectionMatchesContent(s xmlstore.Section, q Query) bool {
	return sectionMatchesContent(s, q)
}

// SectionMatchesContext applies a query's context predicate to a section.
func SectionMatchesContext(s xmlstore.Section, q Query) bool {
	if q.Context == "" {
		return true
	}
	have := strings.ToLower(strings.Join(strings.Fields(s.Context), " "))
	want := strings.ToLower(strings.Join(strings.Fields(q.Context), " "))
	if q.ContextPrefix {
		return strings.HasPrefix(have, want)
	}
	return have == want
}

// containsWord checks a word-boundary match.
func containsWord(text, word string) bool {
	idx := 0
	for {
		i := strings.Index(text[idx:], word)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(word)
		beforeOK := start == 0 || !isWordChar(text[start-1])
		afterOK := end >= len(text) || !isWordChar(text[end])
		if beforeOK && afterOK {
			return true
		}
		idx = start + 1
	}
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c >= 'A' && c <= 'Z'
}
