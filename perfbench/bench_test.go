package main

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"netmark/internal/core"
	"netmark/internal/corpus"
	"netmark/internal/experiments"
	"netmark/internal/sgml"
	"netmark/internal/xdb"
	"netmark/internal/xmlstore"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		p            float64
		value        float64
		beyond       int
		wantSupport  bool
		wantMustFail bool
	}{
		{50, 50, 50, true, false},
		{90, 90, 10, true, false},
		{95, 95, 5, false, true},
		{99, 99, 1, false, true},
		{100, 100, 0, false, true},
	} {
		got := percentile(append([]float64(nil), xs...), c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.Samples != 100 {
			t.Errorf("p%g = %+v, want value %g beyond %d", c.p, got, c.value, c.beyond)
		}
		if got.supported() != c.wantSupport {
			t.Errorf("p%g supported = %v", c.p, got.supported())
		}
		if _, err := mustPercentile("x", append([]float64(nil), xs...), 1, c.p); (err != nil) != c.wantMustFail {
			t.Errorf("p%g mustPercentile err = %v", c.p, err)
		}
	}
}

func TestPercentileTiesAndFailures(t *testing.T) {
	// Ties at the percentile are not beyond it.
	xs := []float64{1, 2, 2, 2, 2, 2, 2, 2, 2, 3}
	if got := percentile(xs, 50); got.Value != 2 || got.Beyond != 1 {
		t.Errorf("ties: %+v", got)
	}
	// Failed requests sort last and count beyond every real latency; a
	// percentile that lands on one reports the finite stand-in.
	ys := make([]float64, 200)
	for i := range ys {
		ys[i] = 1
	}
	for i := 0; i < 12; i++ {
		ys[i] = failedSample
	}
	if got := percentile(append([]float64(nil), ys...), 90); got.Value != 1 || got.Beyond != 12 {
		t.Errorf("p90 with failures: %+v", got)
	}
	if got := percentile(append([]float64(nil), ys...), 95); got.Value != failedValue {
		t.Errorf("p95 landing on a failure: %+v", got)
	}
	if got := percentile(nil, 50); got.Samples != 0 || got.supported() {
		t.Errorf("empty: %+v", got)
	}
}

func TestSegmentedPercentileIgnoresOneBadSlice(t *testing.T) {
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = 1 + float64(i%200)/1000 // 1.000 .. 1.199 in each slice
	}
	for i := 400; i < 600; i++ {
		xs[i] = 50 // a burst of outside noise spoils the last slice
	}
	got := segmentedPercentile(xs, 3, 95)
	if got.Value > 1.2 || got.Samples != 600 || got.Beyond != 0 {
		t.Errorf("median of slice p95s = %+v, want about 1.19 with beyond 0 (the spoiled slice has none)", got)
	}
	if _, err := mustPercentile("x", xs, 3, 95); err == nil {
		t.Error("a slice with no samples beyond its p95 passed the ten-beyond rule")
	}
	if got := segmentedPercentile(xs[:400], 2, 50); math.Abs(got.Value-1.099) > 1e-9 || got.Beyond != 100 {
		t.Errorf("p50 over two clean slices = %+v", got)
	}
}

func TestOpenLoopTimingRule(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name                  string
		due, free, send, done time.Duration
		latency, late         time.Duration
	}{
		// Idle client, sleep overshot by 1ms: the overshoot is the
		// generator's, not the system's.
		{"idle, timer late", 10 * ms, 5 * ms, 11 * ms, 12 * ms, 1 * ms, 1 * ms},
		// Idle client, on time.
		{"idle, on time", 10 * ms, 5 * ms, 10 * ms, 13 * ms, 3 * ms, 0},
		// The previous request held the client 30ms past this one's
		// due time: the wait counts against this request.
		{"stalled behind earlier request", 10 * ms, 40 * ms, 40 * ms, 42 * ms, 32 * ms, 0},
		// Stalled, and then slow to send after becoming free.
		{"stalled then late", 10 * ms, 40 * ms, 41 * ms, 43 * ms, 32 * ms, 1 * ms},
	} {
		lat, late := openLoopTiming(c.due, c.free, c.send, c.done)
		if lat != c.latency || late != c.late {
			t.Errorf("%s: latency %v late %v, want %v %v", c.name, lat, late, c.latency, c.late)
		}
	}
}

func TestOpenLoopCountsStallsFromDueTime(t *testing.T) {
	// One client at 200/s; request 3 stalls for 60ms, so requests 4..
	// are sent late and their latency includes the wait.
	res := openLoop(1, 200, 100*time.Millisecond, func(_, i int) (bool, time.Time) {
		if i == 3 {
			time.Sleep(60 * time.Millisecond)
		}
		return i != 7, time.Now()
	})
	if len(res.latMs) != 20 {
		t.Fatalf("got %d samples, want 20", len(res.latMs))
	}
	if res.latMs[3] < 60 {
		t.Errorf("stalled request latency %.1fms, want >= 60", res.latMs[3])
	}
	// Request 4 was due 5ms after request 3 and waited ~55ms behind it.
	if res.latMs[4] < 50 {
		t.Errorf("request behind the stall: latency %.1fms, want >= 50", res.latMs[4])
	}
	if res.latMs[7] != failedSample {
		t.Errorf("failed request recorded as %v", res.latMs[7])
	}
}

func TestOpenLoopFreesClientWhenOpReturns(t *testing.T) {
	// Each op is complete at once but keeps its client busy for 30ms
	// more (as the writer does with deletes), so every request after the
	// first waits behind the previous one's tail.
	res := openLoop(1, 100, 50*time.Millisecond, func(_, i int) (bool, time.Time) {
		done := time.Now()
		time.Sleep(30 * time.Millisecond)
		return true, done
	})
	if res.latMs[0] > 20 {
		t.Errorf("first request latency %.1fms includes work after it completed", res.latMs[0])
	}
	if res.latMs[4] < 60 {
		t.Errorf("fifth request latency %.1fms, want >= 60 (queued behind the busy client)", res.latMs[4])
	}
}

func TestSelfTime(t *testing.T) {
	us := time.Microsecond
	parent := span{ID: 1, Start: 0, End: 100 * us}
	children := []span{
		{ID: 2, Parent: 1, Start: 10 * us, End: 30 * us},
		{ID: 3, Parent: 1, Start: 20 * us, End: 50 * us},   // overlaps 2
		{ID: 4, Parent: 1, Start: 90 * us, End: 120 * us},  // clipped at the parent's end
		{ID: 5, Parent: 1, Start: 200 * us, End: 300 * us}, // a replay after the request
	}
	if got := selfTime(parent, children); got != 50*us {
		t.Errorf("selfTime = %v, want 50µs", got)
	}
	grandchild := span{ID: 6, Parent: 2, Start: 15 * us, End: 25 * us}
	self := selfTimes(append([]span{parent, grandchild}, children...))
	if self[1] != 50*us || self[2] != 10*us || self[6] != 10*us || self[5] != 100*us {
		t.Errorf("selfTimes = %v", self)
	}
	if got := byName([]span{parent, children[0]}, "", self); len(got) != 2 {
		t.Errorf("byName matched %d spans", len(got))
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	req, parent := parseTraceHeader(traceHeaderValue(7, 42))
	if req != 7 || parent != 42 {
		t.Errorf("got %d/%d", req, parent)
	}
}

func TestStatsDelta(t *testing.T) {
	before, err := parseCounters([]byte(`{"documents": 10, "cache": {"enabled": true, "hits": 100, "misses": 20},
		"wal": {"appends": 5, "syncs": 1}, "snapshot": {"fallback": "x"}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseCounters([]byte(`{"documents": 12, "cache": {"enabled": true, "hits": 190, "misses": 30},
		"wal": {"appends": 25, "syncs": 3}, "node_cache": {"hits": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	want := counters{"documents": 2, "cache.hits": 90, "cache.misses": 10, "wal.appends": 20, "wal.syncs": 2, "node_cache.hits": 4}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("delta[%s] = %v, want %v", k, d[k], v)
		}
	}
	if _, ok := d["cache.enabled"]; ok {
		t.Error("booleans must not become counters")
	}
	if r := d.ratio("cache.hits", "cache.misses"); r != 0.9 {
		t.Errorf("hit ratio %v, want 0.9", r)
	}
	if r := d.ratio("pool.hits", "pool.misses"); r != 0 {
		t.Errorf("ratio without traffic = %v, want 0", r)
	}
	if _, err := parseCounters([]byte("not json")); err == nil {
		t.Error("bad payload accepted")
	}
}

func TestBodyOracleRejectsCorruptedByte(t *testing.T) {
	o := newBodyOracle()
	body := []byte(`<results count="1"><result doc="a.html"/></results>`)
	if !o.observe(3, body) || !o.observe(3, append([]byte(nil), body...)) {
		t.Fatal("identical bodies rejected")
	}
	bad := append([]byte(nil), body...)
	bad[10] ^= 0x01
	if o.observe(3, bad) {
		t.Error("a body with one corrupted byte matched the first answer")
	}
	// The first answer itself corrupted: the reference catches it.
	o2 := newBodyOracle()
	o2.observe(1, bad)
	o2.observe(2, body)
	wrong, err := o2.verify(func(qi int, buf *bytes.Buffer) error {
		buf.Write(body)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wrong[1] || wrong[2] || len(wrong) != 1 {
		t.Errorf("wrong = %v, want only query 1", wrong)
	}
	if o2.heldBytes() < int64(2*len(body)) {
		t.Errorf("held %d bytes", o2.heldBytes())
	}
}

func TestStructureCheck(t *testing.T) {
	q := query{raw: "context=Budget&content=shuttle&limit=2", context: "Budget", content: "shuttle", limit: 2}
	pq, err := xdb.Parse(q.raw)
	if err != nil {
		t.Fatal(err)
	}
	body := func(secs ...xmlstore.Section) []byte {
		var buf bytes.Buffer
		r := &xdb.Result{Query: pq, Sections: secs}
		if err := sgml.WriteIndent(&buf, r.XML()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := xmlstore.Section{DocName: "a.html", Context: "Budget", Content: "The shuttle was tested."}
	deletes := newDeleteLog()
	sent := time.Now()
	if err := checkStructure(q, pq, 200, body(good), sent, deletes); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   []byte
	}{
		"status":             {500, body(good)},
		"no results element": {200, []byte("plain text")},
		"over limit":         {200, body(good, good, good)},
		"wrong context":      {200, body(xmlstore.Section{DocName: "a.html", Context: "Schedule", Content: "The shuttle."})},
		"content predicate":  {200, body(xmlstore.Section{DocName: "a.html", Context: "Budget", Content: "No match here."})},
	} {
		if err := checkStructure(q, pq, c.status, c.body, sent, deletes); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A document whose delete was acked before the request was sent
	// must not appear; one deleted after the send may.
	deletes.ack("a.html", sent.Add(-time.Millisecond))
	if err := checkStructure(q, pq, 200, body(good), sent, deletes); err == nil || !strings.Contains(err.Error(), "deleted") {
		t.Errorf("section of a deleted document accepted: %v", err)
	}
	later := newDeleteLog()
	later.ack("a.html", sent.Add(time.Millisecond))
	if err := checkStructure(q, pq, 200, body(good), sent, later); err != nil {
		t.Errorf("delete acked after the send rejected the answer: %v", err)
	}
}

func TestAnswerKeysIgnoreOrder(t *testing.T) {
	a := &xdb.Result{Sections: []xmlstore.Section{{DocName: "a", Context: "c", Content: "x"}, {DocName: "b", Context: "c", Content: "y"}}}
	b := &xdb.Result{Sections: []xmlstore.Section{a.Sections[1], a.Sections[0]}}
	if strings.Join(answerKeys(a), "|") != strings.Join(answerKeys(b), "|") {
		t.Error("order changed the keys")
	}
	c := &xdb.Result{Sections: []xmlstore.Section{a.Sections[0], {DocName: "b", Context: "c", Content: "z"}}}
	if strings.Join(answerKeys(a), "|") == strings.Join(answerKeys(c), "|") {
		t.Error("different content gave equal keys")
	}
}

func TestPoolIsSeededAndCoversEveryKind(t *testing.T) {
	docs := corpus.New(5).Proposals(60)
	build := func() []query {
		pool, err := buildPool(rand.New(rand.NewSource(9)), scrapeText(docs), 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	a, b := build(), build()
	for i := range a {
		if a[i].raw != b[i].raw {
			t.Fatalf("pool differs at %d: %s vs %s", i, a[i].raw, b[i].raw)
		}
	}
	kinds := kindCounts(a)
	for _, k := range kindCycle {
		if kinds[k] == 0 {
			t.Errorf("no %s query in the pool", k)
		}
	}
	for _, q := range a {
		if _, err := xdb.Parse(q.raw); err != nil {
			t.Errorf("%s: %v", q.raw, err)
		}
		if q.limit == 0 {
			t.Errorf("%s: no limit", q.raw)
		}
	}
	if seedFor(1, "a") != seedFor(1, "a") || seedFor(1, "a") == seedFor(1, "b") || seedFor(1, "a") == seedFor(2, "a") {
		t.Error("seedFor is not a function of seed and stream")
	}
}

func TestPoolBucketsShareKindAndLimit(t *testing.T) {
	docs := corpus.New(5).Proposals(60)
	pool, err := buildPool(rand.New(rand.NewSource(3)), scrapeText(docs), 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	other, err := buildPool(rand.New(rand.NewSource(4)), scrapeText(docs), 200, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range pool {
		first := pool[i-i%10]
		if q.limit != first.limit || (q.kind != first.kind && q.kind != kindContent2) {
			t.Errorf("query %d (%s, limit %d) differs from its bucket's first (%s, limit %d)", i, q.kind, q.limit, first.kind, first.limit)
		}
		if q.limit != other[i].limit {
			t.Errorf("rank %d: limit depends on the seed", i)
		}
	}
}

func TestChurnMarkersAreUnique(t *testing.T) {
	c := newChurn(4)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		docs, marker := c.batch(batchDocs)
		if len(docs) != batchDocs+1 || seen[marker] {
			t.Fatalf("batch %d: %d docs, marker %s repeated=%v", i, len(docs), marker, seen[marker])
		}
		seen[marker] = true
		if !bytes.Contains(docs[len(docs)-1].Data, []byte(marker)) {
			t.Errorf("marker document lacks its marker")
		}
	}
}

// TestCorruptedAnswerFailsTheRun serves a small corpus over loopback,
// sends every pool query once, flips one byte of one recorded answer
// (as if the server had sent it) and checks that the reference flags
// that query and the tally fails the run.
func TestCorruptedAnswerFailsTheRun(t *testing.T) {
	sp := spec{name: "tiny", base: func(g *corpus.Generator) []corpus.Document { return g.Proposals(30) },
		poolSize: 60, bucket: 1, readers: 2}
	r := newRunner(sp, 1, 1, false)
	defer r.c.close()
	r.workDir = t.TempDir()
	base := sp.base(corpus.New(seedFor(1, "corpus")))
	if err := r.buildPool(base); err != nil {
		t.Fatal(err)
	}
	_, refDir, err := r.setupAll(base)
	if err != nil {
		t.Fatal(err)
	}
	defer r.s.shutdown()
	if n := r.warm(); n != 0 {
		t.Fatalf("%d answers failed on an untouched server: %s", n, r.firstErr)
	}
	clean, endErr, err := r.checkOracle(refDir, nil)
	if err != nil || endErr != nil || len(clean) != 0 {
		t.Fatalf("untouched run: wrong=%v endErr=%v err=%v", clean, endErr, err)
	}
	got := r.oracle.first[7]
	got[len(got)/2] ^= 0x20
	wrong, _, err := r.checkOracle(refDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wrong[7] || len(wrong) != 1 {
		t.Fatalf("wrong = %v, want only query 7", wrong)
	}
	_, failed, _ := tally(len(r.pool), 0, timed{}, &writer{}, wrong, nil)
	if failed == 0 {
		t.Error("a corrupted answer did not fail the run")
	}
}

// TestKernelMirrorsPlanner checks the layer replay against the engine:
// the text index is replayed only for plans that use it, and a plan
// without a residual filter yields as many items as the engine's answer.
func TestKernelMirrorsPlanner(t *testing.T) {
	docs := corpus.New(5).Proposals(40)
	s, err := openSUT(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.shutdown()
	batch := make([]core.Doc, len(docs))
	for i, d := range docs {
		batch[i] = core.Doc{Name: d.Name, Data: d.Data}
	}
	for _, r := range s.nm.IngestBatch(batch) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := s.nm.RegisterStylesheet(stylesheetName, experiments.IBPDStylesheet); err != nil {
		t.Fatal(err)
	}
	pool, err := buildPool(rand.New(rand.NewSource(2)), scrapeText(docs), 220, 1)
	if err != nil {
		t.Fatal(err)
	}
	usesIndex := map[string]bool{kindContent1: true, kindContent2: true, kindPhrase: true, kindDocs: true}
	residual := map[string]bool{kindPrefixContent: true, kindPhraseContext: true}
	engine := s.nm.Engine()
	for _, q := range pool {
		pq, err := xdb.Parse(q.raw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Execute(pq)
		if err != nil {
			t.Fatalf("%s: %v", q.raw, err)
		}
		n, ids, err := kernel(newTracer(), 0, 0, engine.Store(), pq)
		if err != nil {
			t.Fatalf("%s: %v", q.raw, err)
		}
		if usesIndex[q.kind] && ids < 0 || (residual[q.kind] || q.kind == kindContext || q.kind == kindPrefix) && ids >= 0 {
			t.Errorf("%s (%s): ids = %d", q.raw, q.kind, ids)
		}
		got := len(res.Sections) + len(res.Docs)
		switch {
		case residual[q.kind] && n < got, !residual[q.kind] && q.kind != kindXPath && n != got:
			t.Errorf("%s (%s): kernel gave %d items, the engine %d", q.raw, q.kind, n, got)
		}
	}
}
