package main

// The output oracle.  Read-only workloads compare every response body
// byte for byte with a reference instance built from the same corpus
// (caches off, one query worker, context index off).  Reads that race a
// writer are checked for structure instead, and the writer's acked op
// log is replayed into the reference at the end so the two stores can
// be compared as sets.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"netmark/internal/sgml"
	"netmark/internal/xdb"
)

// bodyOracle remembers the first body seen for each query and checks
// every later response against it.  The first bodies are checked
// against the reference after the timed phases, when the reference may
// use the machine without disturbing the measurement.
type bodyOracle struct {
	mu    sync.Mutex
	first map[int][]byte // guarded by mu
	held  int64          // guarded by mu; capacity of the bodies in first
	wrong map[int]bool   // guarded by mu; queries with a body mismatch
}

func newBodyOracle() *bodyOracle {
	return &bodyOracle{first: map[int][]byte{}, wrong: map[int]bool{}}
}

// observe records one response body for query qi and reports whether it
// matches the first body seen for qi.
func (o *bodyOracle) observe(qi int, body []byte) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.first[qi]
	if !ok {
		c := bytes.Clone(body)
		o.first[qi] = c
		o.held += int64(cap(c))
		return true
	}
	if !bytes.Equal(f, body) {
		o.wrong[qi] = true
		return false
	}
	return true
}

// heldBytes is the memory the oracle's copies occupy.
func (o *bodyOracle) heldBytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.held
}

// verify checks each query's first body against the reference answer
// and returns the set of queries whose responses were wrong.  reference
// writes qi's answer into buf.  The reference runs one query at a time,
// as its configuration asks.  mismatch, when non-nil, receives each
// differing pair of bodies.
func (o *bodyOracle) verify(reference func(qi int, buf *bytes.Buffer) error, mismatch func(qi int, got, want []byte)) (map[int]bool, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	qis := make([]int, 0, len(o.first))
	for qi := range o.first {
		qis = append(qis, qi)
	}
	sort.Ints(qis)
	var buf bytes.Buffer
	for _, qi := range qis {
		buf.Reset()
		if err := reference(qi, &buf); err != nil {
			return nil, err
		}
		if !bytes.Equal(buf.Bytes(), o.first[qi]) {
			o.wrong[qi] = true
			if mismatch != nil {
				mismatch(qi, o.first[qi], buf.Bytes())
			}
		}
	}
	out := make(map[int]bool, len(o.wrong))
	for qi := range o.wrong {
		out[qi] = true
	}
	return out, nil
}

// deleteLog records when each document's delete was acknowledged.
type deleteLog struct {
	mu    sync.Mutex
	acked map[string]time.Time // guarded by mu; document name -> ack time
}

func newDeleteLog() *deleteLog { return &deleteLog{acked: map[string]time.Time{}} }

func (d *deleteLog) ack(name string, at time.Time) {
	d.mu.Lock()
	d.acked[name] = at
	d.mu.Unlock()
}

// goneBefore reports whether name's delete was acked before t.
func (d *deleteLog) goneBefore(name string, t time.Time) bool {
	d.mu.Lock()
	at, ok := d.acked[name]
	d.mu.Unlock()
	return ok && at.Before(t)
}

// checkStructure is the oracle for reads that race a writer: status
// 200, a parseable answer with no more items than limit=, every section
// satisfying the query's context and content predicates, and no
// document whose delete was acked before the request was sent.
func checkStructure(q query, pq xdb.Query, status int, body []byte, sent time.Time, deletes *deleteLog) error {
	if status != 200 {
		return fmt.Errorf("%s: status %d", q.raw, status)
	}
	if q.xslt {
		return checkStyled(q, body, sent, deletes)
	}
	r, err := xdb.ParseResultXML(string(body))
	if err != nil {
		return fmt.Errorf("%s: %w", q.raw, err)
	}
	if n := len(r.Sections) + len(r.Docs); q.limit > 0 && n > q.limit {
		return fmt.Errorf("%s: %d items over limit %d", q.raw, n, q.limit)
	}
	for _, s := range r.Sections {
		if q.xpath == "" && !(xdb.SectionMatchesContext(s, pq) && xdb.SectionMatchesContent(s, pq)) {
			return fmt.Errorf("%s: section of %s under %q fails the query's predicates", q.raw, s.DocName, s.Context)
		}
		if deletes.goneBefore(s.DocName, sent) {
			return fmt.Errorf("%s: section of %s, deleted before the request", q.raw, s.DocName)
		}
	}
	for _, d := range r.Docs {
		if deletes.goneBefore(d.FileName, sent) {
			return fmt.Errorf("%s: document %s, deleted before the request", q.raw, d.FileName)
		}
	}
	return nil
}

// checkStyled checks an xslt=ibpd answer: an <ibpd> document with at
// most limit entries, none from a deleted document.
func checkStyled(q query, body []byte, sent time.Time, deletes *deleteLog) error {
	tree, err := sgml.ParseString(string(body), sgml.ModeXML)
	if err != nil {
		return fmt.Errorf("%s: %w", q.raw, err)
	}
	root := tree.Find("ibpd")
	if root == nil {
		return fmt.Errorf("%s: no <ibpd> element", q.raw)
	}
	entries := root.ChildElements()
	if q.limit > 0 && len(entries) > q.limit {
		return fmt.Errorf("%s: %d entries over limit %d", q.raw, len(entries), q.limit)
	}
	for _, e := range entries {
		if doc, _ := e.Attr("plan"); deletes.goneBefore(doc, sent) {
			return fmt.Errorf("%s: entry from %s, deleted before the request", q.raw, doc)
		}
	}
	return nil
}

// answerKeys renders an answer as a sorted multiset of
// (document, context, content) keys, or document names for
// document-scope answers.  Order is deliberately ignored: after churn,
// section order differs between the default and the serial
// configuration (see NOTES.md).
func answerKeys(r *xdb.Result) []string {
	var out []string
	for _, s := range r.Sections {
		out = append(out, s.DocName+"\x00"+s.Context+"\x00"+s.Content)
	}
	for _, d := range r.Docs {
		out = append(out, "doc\x00"+d.FileName)
	}
	sort.Strings(out)
	return out
}

// sameAnswers compares two engines' answers to qs as sets, running the
// two sides of each query concurrently.
func sameAnswers(got, want *xdb.Engine, qs []query) error {
	for _, q := range qs {
		pq, err := xdb.Parse(q.raw)
		if err != nil {
			return err
		}
		var b *xdb.Result
		var errB error
		done := make(chan struct{})
		go func() {
			defer close(done)
			b, errB = want.Execute(pq)
		}()
		a, errA := got.Execute(pq)
		<-done
		if errA != nil {
			return fmt.Errorf("end state %s: %w", q.raw, errA)
		}
		if errB != nil {
			return fmt.Errorf("end state reference %s: %w", q.raw, errB)
		}
		ka, kb := answerKeys(a), answerKeys(b)
		if strings.Join(ka, "\x01") != strings.Join(kb, "\x01") {
			return fmt.Errorf("end state %s: %d items, reference has %d (or they differ)", q.raw, len(ka), len(kb))
		}
	}
	return nil
}

// emptyAnswer reports whether a response body holds no results.
func emptyAnswer(q query, body []byte) bool {
	if q.xslt {
		return !bytes.Contains(body, []byte("<entry"))
	}
	return bytes.Contains(body, []byte(`count="0"`))
}
