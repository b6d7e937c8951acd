package main

// Inputs: everything a run feeds the system is derived here from the
// workload seed — the base corpus, the query pool, the draw sequence and
// the churn documents with their marker terms.  The pool is built from
// text that occurs in the generated documents (headings, words and
// adjacent word pairs scraped from the raw files), never from the
// store, so the system under test only ever sees the generated inputs.

import (
	"fmt"
	"math/rand"
	"net/url"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"netmark/internal/corpus"
)

// Plan kinds: one per branch of the engine's query planner, plus the
// stylesheet share.  Per-layer metrics and the empty-answer share are
// reported against these names.
const (
	kindContext        = "context"
	kindPrefix         = "context-prefix"
	kindContent1       = "content-1"
	kindContent2       = "content-2"
	kindContextContent = "context+content"
	kindPrefixContent  = "context-prefix+content"
	kindPhrase         = "phrase"
	kindPhraseContext  = "phrase+context"
	kindDocs           = "scope-document"
	kindXPath          = "xpath"
	kindXSLT           = "xslt"
)

// query is one pool entry: the raw URL query the client sends and the
// predicates the oracle checks it against.
type query struct {
	raw     string
	kind    string
	context string // exact heading or prefix (without '*')
	prefix  bool
	content string // terms or phrase (without quotes)
	phrase  bool
	docs    bool
	xpath   string
	xslt    bool
	limit   int // 0 = unlimited
}

// encode renders the URL query string.  url.Values sorts its keys, so a
// query always has one spelling.
func (q query) encode() string {
	v := url.Values{}
	if q.context != "" {
		c := q.context
		if q.prefix {
			c += "*"
		}
		v.Set("context", c)
	}
	if q.content != "" {
		c := q.content
		if q.phrase {
			c = `"` + c + `"`
		}
		v.Set("content", c)
	}
	if q.docs {
		v.Set("scope", "document")
	}
	if q.xpath != "" {
		v.Set("xpath", q.xpath)
	}
	if q.xslt {
		v.Set("xslt", stylesheetName)
	}
	if q.limit > 0 {
		v.Set("limit", strconv.Itoa(q.limit))
	}
	return v.Encode()
}

// stylesheetName is the name the benchmark registers its copy of the
// IBPD composition sheet under (PUT /xslt/ibpd).
const stylesheetName = "ibpd"

// textFacts is what the pool builder learned from the raw documents.
type textFacts struct {
	headings []string            // distinct section headings
	sections map[string][]string // heading -> sentences found under it
	words    []string            // distinct lowercase words of sentences
	tags     []string            // element names used in the markup inputs
}

var (
	reHTMLSection = regexp.MustCompile(`(?s)<h2>([^<]+)</h2>\s*<p>([^<]*)</p>`)
	reXMLHeading  = regexp.MustCompile(`<heading>([^<]+)</heading>`)
	reSentence    = regexp.MustCompile(`[A-Z][a-z]+(?: [a-z]+)+\.`)
	reTag         = regexp.MustCompile(`<([a-z][a-z0-9]*)>`)
)

// scrapeText extracts headings, the sentences under each heading, the
// sentence vocabulary and the markup tags from HTML and XML inputs.
// Other formats carry the same vocabulary, so they add nothing here.
func scrapeText(docs []corpus.Document) textFacts {
	f := textFacts{sections: map[string][]string{}}
	words := map[string]bool{}
	tags := map[string]bool{}
	add := func(heading, body string) {
		heading = strings.TrimSpace(heading)
		for _, s := range reSentence.FindAllString(body, -1) {
			f.sections[heading] = append(f.sections[heading], s)
			for _, w := range strings.Fields(strings.TrimSuffix(s, ".")) {
				if len(w) >= 4 {
					words[strings.ToLower(w)] = true
				}
			}
		}
		if _, ok := f.sections[heading]; !ok {
			f.sections[heading] = nil
		}
	}
	for _, d := range docs {
		text := string(d.Data)
		switch {
		case strings.HasSuffix(d.Name, ".html"):
			for _, m := range reHTMLSection.FindAllStringSubmatch(text, -1) {
				add(m[1], m[2])
			}
		case strings.HasSuffix(d.Name, ".xml"):
			locs := reXMLHeading.FindAllStringSubmatchIndex(text, -1)
			for i, l := range locs {
				end := len(text)
				if i+1 < len(locs) {
					end = locs[i+1][0]
				}
				add(text[l[2]:l[3]], text[l[1]:end])
			}
		default:
			continue
		}
		for _, m := range reTag.FindAllStringSubmatch(text, -1) {
			tags[m[1]] = true
		}
	}
	for h := range f.sections {
		f.headings = append(f.headings, h)
	}
	sort.Strings(f.headings)
	f.words = sortedKeys(words)
	f.tags = sortedKeys(tags)
	return f
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// kindCycle is the plan-kind mix of a pool, one entry per bucket.
// Every planner branch gets an equal share; nothing measured or cited
// gives a better one.  The stylesheet share is one bucket in 21, about
// the 5% the workload definition asks for.
var kindCycle = []string{
	kindContext, kindPrefix, kindContent1, kindContent2, kindContextContent,
	kindPrefixContent, kindPhrase, kindPhraseContext, kindDocs, kindXPath,
	kindContext, kindPrefix, kindContent1, kindContent2, kindContextContent,
	kindPrefixContent, kindPhrase, kindPhraseContext, kindDocs, kindXPath,
	kindXSLT,
}

var limits = []int{5, 10, 20, 40}

// buildPool draws n distinct queries covering every plan kind, each
// with limit=, from text that occurs in the corpus.  The pool is a run
// of buckets of `bucket` queries that share a kind and a limit; a Zipf
// draw picks a bucket by rank and then one of its queries.  Bucket b's
// kind and limit are fixed for every seed: the kinds cycle through
// kindCycle and the limits through limits.  So the mix, and the kinds of the hottest ranks, do not vary
// with the seed, and the terms that do vary are averaged over a bucket.
// A kind whose distinct queries run out (a corpus has few headings)
// yields its place to a two-term content query.
func buildPool(rng *rand.Rand, f textFacts, n, bucket int) ([]query, error) {
	if len(f.headings) == 0 || len(f.words) < 2 {
		return nil, fmt.Errorf("pool: corpus has no scrapeable headings or words")
	}
	var withText []string // headings with at least one sentence under them
	for _, h := range f.headings {
		if len(f.sections[h]) > 0 {
			withText = append(withText, h)
		}
	}
	xpathTags := intersect(f.tags, []string{"p", "h2", "para", "heading"})
	if len(withText) == 0 || len(xpathTags) == 0 {
		return nil, fmt.Errorf("pool: corpus has no sections with text or no selectable tags")
	}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	// sentenceIn returns a word of a sentence under heading h and an
	// adjacent word pair from it.
	sentenceIn := func(h string) (word, pair string) {
		ws := strings.Fields(strings.ToLower(strings.TrimSuffix(pick(f.sections[h]), ".")))
		i := rng.Intn(len(ws) - 1)
		for tries := 0; len(ws[i]) < 4 && tries < 8; tries++ {
			i = rng.Intn(len(ws) - 1)
		}
		return ws[i], ws[i] + " " + ws[i+1]
	}
	// prefixOf cuts a heading inside its second word, or inside its
	// only word, so a prefix selects about as many sections as one
	// heading does rather than every heading sharing a first word.
	prefixOf := func(h string) string {
		words := strings.Fields(h)
		if len(words) == 1 {
			if n := 3 + rng.Intn(3); n < len(h) {
				return h[:n]
			}
			return h
		}
		start := strings.Index(h, words[1])
		return h[:start+1+rng.Intn(len(words[1]))]
	}
	draw := func(kind string, limit int) query {
		q := query{kind: kind, limit: limit}
		h := pick(withText)
		word, pair := sentenceIn(h)
		switch kind {
		case kindContext:
			q.context = h
		case kindPrefix:
			q.context, q.prefix = prefixOf(h), true
		case kindContent1:
			q.content = word
		case kindContent2:
			q.content = word + " " + pick(f.words)
		case kindContextContent:
			q.context, q.content = h, word
		case kindPrefixContent:
			q.context, q.prefix, q.content = prefixOf(h), true, word
		case kindPhrase:
			q.content, q.phrase = pair, true
		case kindPhraseContext:
			q.context, q.content, q.phrase = h, pair, true
		case kindDocs:
			q.content, q.docs = word, true
		case kindXPath:
			q.xpath = "//" + pick(xpathTags)
			if rng.Intn(2) == 0 {
				q.context = h
			} else {
				q.content = word
			}
		case kindXSLT:
			q.xslt = true
			if rng.Intn(2) == 0 {
				q.context = h
			} else {
				q.content = word
			}
		}
		q.raw = q.encode()
		return q
	}
	seen := map[string]bool{}
	distinct := func(kind string, limit int) (query, bool) {
		for misses := 0; misses < 200; misses++ {
			q := draw(kind, limit)
			if !seen[q.raw] {
				seen[q.raw] = true
				return q, true
			}
		}
		return query{}, false
	}
	pool := make([]query, 0, n)
	for i := 0; i < n; i++ {
		b := i / bucket
		limit := limits[b%len(limits)]
		q, ok := distinct(kindCycle[b%len(kindCycle)], limit)
		if !ok {
			q, ok = distinct(kindContent2, limit)
		}
		if !ok {
			return nil, fmt.Errorf("pool: only %d distinct queries", len(pool))
		}
		pool = append(pool, q)
	}
	return pool, nil
}

func intersect(have, want []string) []string {
	var out []string
	for _, w := range want {
		for _, h := range have {
			if h == w {
				out = append(out, w)
				break
			}
		}
	}
	return out
}

// seedFor derives an independent stream seed for one input from the
// workload seed (splitmix64 over the seed and the stream's name).
func seedFor(seed int64, stream string) int64 {
	x := uint64(seed)
	for _, c := range stream {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

// churn produces the writer's documents: proposals from the base
// corpus's vocabulary under unique names, so writes invalidate cached
// answers, plus one marker document per batch whose term occurs nowhere
// else.
type churn struct {
	gen    *corpus.Generator
	salt   uint64
	next   int
	batchN int
}

func newChurn(seed int64) *churn {
	return &churn{gen: corpus.New(seedFor(seed, "churn")), salt: uint64(seedFor(seed, "marker"))}
}

// batch returns the next batch's documents (the marker document last)
// and the marker term.
func (c *churn) batch(size int) ([]corpus.Document, string) {
	docs := make([]corpus.Document, 0, size+1)
	for i := 0; i < size; i++ {
		d := c.gen.Proposal(c.next)
		ext := d.Name[strings.LastIndexByte(d.Name, '.'):]
		d.Name = fmt.Sprintf("churn-%06d%s", c.next, ext)
		docs = append(docs, d)
		c.next++
	}
	marker := "mk" + strconv.FormatUint(c.salt, 36) + "x" + strconv.Itoa(c.batchN)
	docs = append(docs, corpus.Document{
		Name: fmt.Sprintf("marker-%06d.html", c.batchN),
		Data: []byte("<html><head><title>Batch " + strconv.Itoa(c.batchN) + "</title></head><body>\n" +
			"<h2>Batch marker</h2>\n<p>Marker " + marker + " closes this batch.</p>\n</body></html>"),
	})
	c.batchN++
	return docs, marker
}
