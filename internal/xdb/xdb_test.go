package xdb

import (
	"strings"
	"testing"

	"netmark/internal/corpus"
	"netmark/internal/ordbms"
	"netmark/internal/sgml"
	"netmark/internal/xmlstore"
)

func engine(t testing.TB) *Engine {
	t.Helper()
	db, err := ordbms.Open(ordbms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := xmlstore.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(s)
}

func load(t testing.TB, e *Engine, name, data string) {
	t.Helper()
	if _, err := e.Store().StoreRaw(name, []byte(data)); err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
}

const doc1 = `<html><head><title>Report One</title></head><body>
<h1>Introduction</h1><p>The shuttle program overview.</p>
<h2>Technology Gap</h2><p>The technology gap is shrinking fast.</p>
</body></html>`

const doc2 = `<html><head><title>Report Two</title></head><body>
<h1>Introduction</h1><p>An unrelated engine analysis.</p>
<h2>Findings</h2><p>The technology gap persists in avionics.</p>
</body></html>`

func TestParseQueryForms(t *testing.T) {
	cases := []struct {
		raw  string
		want Query
	}{
		{"context=Introduction", Query{Context: "Introduction"}},
		{"?context=Introduction", Query{Context: "Introduction"}},
		{"Content=Shuttle", Query{Content: "Shuttle"}},
		{"CONTEXT=Technology+Gap&CONTENT=Shrinking", Query{Context: "Technology Gap", Content: "Shrinking"}},
		{"context=Tech*", Query{Context: "Tech", ContextPrefix: true}},
		{"content=%22technology+gap%22", Query{Content: "technology gap", Phrase: true}},
		{"content=x&scope=document", Query{Content: "x", DocsOnly: true}},
		{"context=Budget&xslt=ibpd&limit=5", Query{Context: "Budget", XSLT: "ibpd", Limit: 5}},
	}
	for _, c := range cases {
		got, err := Parse(c.raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.raw, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.raw, got, c.want)
		}
	}
}

func TestParseQueryErrors(t *testing.T) {
	for _, bad := range []string{
		"", "?", "xslt=only", "context=A&limit=-1", "context=A&limit=x",
		"context=A&scope=galaxy", "context=A&unknownparam=1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestEncodeParseRoundTrip(t *testing.T) {
	qs := []Query{
		{Context: "Budget"},
		{Content: "shuttle engine"},
		{Context: "Tech", ContextPrefix: true, Content: "gap"},
		{Content: "exact phrase", Phrase: true, Limit: 3},
		{Content: "x", DocsOnly: true, XSLT: "sheet"},
	}
	for _, q := range qs {
		got, err := Parse(q.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if got != q {
			t.Fatalf("round trip %+v -> %q -> %+v", q, q.Encode(), got)
		}
	}
}

func TestExecuteContextQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	r, err := e.ExecuteString("context=Introduction")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("results = %d", r.Len())
	}
}

func TestExecuteCombinedQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	// The paper's example: Context=Technology Gap & Content=Shrinking.
	r, err := e.ExecuteString("context=Technology+Gap&content=Shrinking")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("results = %d", r.Len())
	}
	if r.Sections[0].DocName != "one.html" {
		t.Fatalf("wrong doc: %s", r.Sections[0].DocName)
	}
}

func TestExecuteDocScope(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	r, err := e.ExecuteString("content=technology&scope=document")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Docs) != 2 {
		t.Fatalf("docs = %d", len(r.Docs))
	}
	if _, err := e.ExecuteString("context=A&scope=document"); err == nil {
		t.Fatal("doc scope without content accepted")
	}
}

func TestExecutePrefixQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	r, err := e.ExecuteString("context=Tech*")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Sections[0].Context != "Technology Gap" {
		t.Fatalf("prefix results = %v", r.Sections)
	}
	// Prefix + content residual.
	r, err = e.ExecuteString("context=Tech*&content=shrinking")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("prefix+content = %d", r.Len())
	}
	r, err = e.ExecuteString("context=Tech*&content=absentterm")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("prefix+absent = %d", r.Len())
	}
}

func TestExecutePhraseQuery(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	load(t, e, "two.html", doc2)
	// Phrase "technology gap" occurs in both docs' text, but "gap is
	// shrinking" only in one.
	r, err := e.ExecuteString(`content="gap is shrinking"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Sections[0].DocName != "one.html" {
		t.Fatalf("phrase results = %v", r.Sections)
	}
	// Same words, not adjacent: no hit.
	r, err = e.ExecuteString(`content="shrinking is gap"`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("non-adjacent phrase matched: %v", r.Sections)
	}
}

func TestExecuteLimit(t *testing.T) {
	e := engine(t)
	for i := 0; i < 10; i++ {
		load(t, e, strings.Repeat("x", i+1)+".html",
			`<html><body><h1>Common</h1><p>text</p></body></html>`)
	}
	r, err := e.ExecuteString("context=Common&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("limited results = %d", r.Len())
	}
}

func TestExecuteWithStylesheet(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	err := e.RegisterStylesheet("report", `<xsl:stylesheet>
<xsl:template match="/">
  <report><xsl:for-each select="//result">
    <line><xsl:value-of select="context"/>: <xsl:value-of select="content"/></line>
  </xsl:for-each></report>
</xsl:template>
</xsl:stylesheet>`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.ExecuteString("context=Technology+Gap&xslt=report")
	if err != nil {
		t.Fatal(err)
	}
	if r.Transformed == nil {
		t.Fatal("no transformed output")
	}
	txt := r.Transformed.Text()
	if !strings.Contains(txt, "Technology Gap") || !strings.Contains(txt, "shrinking") {
		t.Fatalf("transformed = %q", txt)
	}
	// Unregistered stylesheet errors.
	if _, err := e.ExecuteString("context=A&xslt=nope"); err == nil {
		t.Fatal("unknown stylesheet accepted")
	}
}

func TestResultXMLRoundTrip(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	r, err := e.ExecuteString("context=Introduction")
	if err != nil {
		t.Fatal(err)
	}
	wire := r.XML()
	parsed, err := ParseResultXML(serialize(wire))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Sections) != len(r.Sections) {
		t.Fatalf("sections: %d != %d", len(parsed.Sections), len(r.Sections))
	}
	if parsed.Sections[0].Context != r.Sections[0].Context ||
		parsed.Sections[0].Content != r.Sections[0].Content ||
		parsed.Sections[0].DocName != r.Sections[0].DocName {
		t.Fatalf("round trip mismatch: %+v vs %+v", parsed.Sections[0], r.Sections[0])
	}
}

func TestResultXMLDocsRoundTrip(t *testing.T) {
	e := engine(t)
	load(t, e, "one.html", doc1)
	r, err := e.ExecuteString("content=shuttle&scope=document")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseResultXML(serialize(r.XML()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Docs) != 1 || parsed.Docs[0].FileName != "one.html" {
		t.Fatalf("docs round trip: %+v", parsed.Docs)
	}
}

func serialize(n *sgml.Node) string { return sgml.Serialize(n) }

func TestResultXMLEscaping(t *testing.T) {
	// Content with markup-significant characters must survive the wire
	// format round trip.
	e := engine(t)
	load(t, e, "tricky.html",
		`<html><body><h1>Formula</h1><p>a &lt; b &amp;&amp; c &gt; d "quoted"</p></body></html>`)
	r, err := e.ExecuteString("context=Formula")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sections) != 1 {
		t.Fatalf("sections = %v", r.Sections)
	}
	parsed, err := ParseResultXML(serialize(r.XML()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Sections[0].Content != r.Sections[0].Content {
		t.Fatalf("escaping broke round trip: %q vs %q",
			parsed.Sections[0].Content, r.Sections[0].Content)
	}
	if !strings.Contains(parsed.Sections[0].Content, `a < b && c > d`) {
		t.Fatalf("content = %q", parsed.Sections[0].Content)
	}
}

func TestSectionPredicates(t *testing.T) {
	sec := xmlstore.Section{Context: "Technology Gap", Content: "the gap is shrinking rapidly"}
	if !SectionMatchesContent(sec, Query{Content: "shrinking"}) {
		t.Fatal("single term")
	}
	if !SectionMatchesContent(sec, Query{Content: "gap shrinking"}) {
		t.Fatal("multi term AND")
	}
	if SectionMatchesContent(sec, Query{Content: "absent"}) {
		t.Fatal("absent term matched")
	}
	if SectionMatchesContent(sec, Query{Content: "shrink"}) {
		t.Fatal("substring must not match at word boundary")
	}
	if !SectionMatchesContent(sec, Query{Content: "is shrinking", Phrase: true}) {
		t.Fatal("phrase")
	}
	if SectionMatchesContent(sec, Query{Content: "shrinking is", Phrase: true}) {
		t.Fatal("reversed phrase matched")
	}
	if !SectionMatchesContext(sec, Query{Context: "technology gap"}) {
		t.Fatal("case-insensitive context")
	}
	if !SectionMatchesContext(sec, Query{Context: "Tech", ContextPrefix: true}) {
		t.Fatal("prefix context")
	}
	if SectionMatchesContext(sec, Query{Context: "Budget"}) {
		t.Fatal("wrong context matched")
	}
}

// A phrase hit with no governing heading resolves to the same fallback
// section a keyword hit on the same word does: phrase and keyword plans
// share one hit-to-section kernel.
func TestPhraseHeadinglessFallback(t *testing.T) {
	e := engine(t)
	load(t, e, "parts.xml", `<inventory><widget><label>Cryo Valve</label><qty>3</qty></widget></inventory>`)
	keyword, err := e.ExecuteString("content=valve")
	if err != nil {
		t.Fatal(err)
	}
	phrase, err := e.ExecuteString(`content="cryo valve"`)
	if err != nil {
		t.Fatal(err)
	}
	if keyword.Len() != 1 || !strings.Contains(keyword.Sections[0].Content, "Cryo Valve") {
		t.Fatalf("keyword sections = %v", keyword.Sections)
	}
	if phrase.Len() != 1 || phrase.Sections[0] != keyword.Sections[0] {
		t.Fatalf("phrase sections = %v, want the keyword fallback %v", phrase.Sections, keyword.Sections)
	}
}

// The residual-filter plans (context prefix plus content, phrase plus
// context) push limit= into the context walk: a capped query touches a
// small fraction of the nodes the uncapped one does.
func TestResidualFilterLimitBoundsTraversal(t *testing.T) {
	e := engine(t)
	s := e.Store()
	s.EnableNodeCache(64 << 20)
	s.SetQueryWorkers(1)
	for _, d := range corpus.New(40).Proposals(40) {
		if _, err := s.StoreRaw(d.Name, d.Data); err != nil {
			t.Fatal(err)
		}
	}
	lookups := func(raw string) (uint64, int) {
		t.Helper()
		before, _ := s.NodeCacheStats()
		r, err := e.ExecuteString(raw)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := s.NodeCacheStats()
		return after.Hits + after.Misses - before.Hits - before.Misses, r.Len()
	}
	for _, q := range []string{`context=B*&content=request`, `content="we request"&context=Budget`} {
		all, n := lookups(q)
		if n < 20 {
			t.Fatalf("%s: %d sections, corpus too small for the test", q, n)
		}
		capped, n := lookups(q + "&limit=1")
		if n != 1 {
			t.Fatalf("%s&limit=1: %d sections", q, n)
		}
		t.Logf("%s: %d node-cache lookups at limit=1, %d unlimited", q, capped, all)
		if capped*4 > all {
			t.Errorf("%s: limit=1 made %d node-cache lookups, unlimited %d", q, capped, all)
		}
	}
}
