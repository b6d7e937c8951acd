package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netmark/internal/core"
	"netmark/internal/corpus"
	"netmark/internal/xdb"
)

// spec defines a workload.  Rates are fixed per workload, not derived
// from the machine, so two commits see the same offered load.
type spec struct {
	name       string
	base       func(g *corpus.Generator) []corpus.Document
	cacheBytes int64 // core.Config.CacheBytes: 0 default, -1 off
	poolSize   int
	zipf       bool    // Zipf(s=1.1) draws over buckets; uniform otherwise
	bucket     int     // pool queries per Zipf rank (see buildPool)
	readers    int     // read clients (capped at nproc)
	readRate   float64 // open-loop offered rate, requests/s
	batchRate  float64 // writer batches/s
	ckptEvery  int     // writer batches between checkpoints, 0 for none mid-phase
	// openShare and closedShare are the open- and closed-loop phases'
	// shares of --seconds; read-only workloads give the rest to the
	// writer alone.
	openShare, closedShare float64
	// writeWhileReading runs the writer through the read phases;
	// otherwise it runs alone after them, and every read body can be
	// compared byte for byte with the reference.  Reads that race the
	// writer are checked for structure instead.
	writeWhileReading bool
}

var specs = []spec{
	{
		name: "serve-zipf", base: proposals, poolSize: 1500, zipf: true, bucket: 10,
		readers: 2, readRate: 600, batchRate: 40, openShare: 0.4, closedShare: 0.3,
	},
	{
		name: "serve-cold", base: deepReports, cacheBytes: -1, poolSize: 600, bucket: 1,
		readers: 2, readRate: 120, batchRate: 40, openShare: 0.55, closedShare: 0.15,
	},
	{
		name: "ingest-serve", base: proposals, poolSize: 1500, zipf: true, bucket: 10,
		readers: 1, readRate: 110, batchRate: 20, ckptEvery: 50, openShare: 0.6, closedShare: 0.4, writeWhileReading: true,
	},
}

func proposals(g *corpus.Generator) []corpus.Document { return g.Proposals(1000) }

func deepReports(g *corpus.Generator) []corpus.Document { return g.DeepReports(120, 6, 24, 16) }

func findSpec(name string) (spec, error) {
	var names []string
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
		names = append(names, s.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// Phases: an untimed warm-up sends every pool query once; the reads
// then run in rounds of open loop and closed loop (untracedPhases), and
// the writer runs alone afterwards on read-only workloads or alongside
// on ingest-serve.  The traced run splits the open loop into an
// untraced and a traced half and skips the closed loop.

// writeShare is the writer-alone phase's share of --seconds.
func (sp spec) writeShare() float64 { return 1 - sp.openShare - sp.closedShare }

// runner holds one run's state.
type runner struct {
	sp      spec
	seed    int64
	secs    float64
	traced  bool
	workDir string

	pool    []query
	parsed  []xdb.Query
	s       *sut
	c       *client
	tr      *tracer
	oracle  *bodyOracle
	deletes *deleteLog
	lc      layerCounts
	bufs    []bytes.Buffer

	sampleMu sync.Mutex
	sampled  []sampledRead // guarded by sampleMu; traced reads awaiting replay

	start    time.Time
	empty    atomic.Int64
	answered atomic.Int64
	errMu    sync.Mutex
	firstErr string // guarded by errMu
}

// logf prints a progress line to standard error, stamped with the time
// since the run started.
func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs %s\n", time.Since(r.start).Seconds(), fmt.Sprintf(format, args...))
}

func (r *runner) firstError() string {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

func (r *runner) noteErr(err error) {
	r.errMu.Lock()
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
	r.errMu.Unlock()
}

func (r *runner) dur(share float64) time.Duration {
	return time.Duration(share * r.secs * float64(time.Second))
}

// sampledRead is a traced request to replay once its phase has ended,
// so the replays do not delay the open loop's later requests.
type sampledRead struct {
	root, req uint64
	qi        int
	respLen   int
}

// read performs one GET /xdb for pool entry qi on client c and checks
// the answer.  traced requests carry the trace header and are queued
// for a layer-by-layer replay.
func (r *runner) read(c, qi int, traced bool) bool {
	q := r.pool[qi]
	buf := &r.bufs[c]
	var hdr http.Header
	var root, req uint64
	var start time.Duration
	if traced {
		req, root = r.tr.newID(), r.tr.newID()
		hdr = http.Header{traceHeader: {traceHeaderValue(req, root)}}
		start = r.tr.now()
	}
	sent := time.Now()
	status, err := r.c.get(r.s.base+"/xdb?"+q.raw, buf, hdr)
	if traced {
		r.tr.record(span{ID: root, Req: req, Name: "request", Start: start, End: r.tr.now()})
	}
	if err != nil {
		r.noteErr(fmt.Errorf("GET %s: %w", q.raw, err))
		return false
	}
	ok := true
	switch {
	case !r.sp.writeWhileReading:
		ok = status == 200 && r.oracle.observe(qi, buf.Bytes())
		if !ok {
			r.noteErr(fmt.Errorf("%s: status %d or body differs from an earlier answer", q.raw, status))
		}
	default:
		if err := checkStructure(q, r.parsed[qi], status, buf.Bytes(), sent, r.deletes); err != nil {
			r.noteErr(err)
			ok = false
		}
	}
	r.answered.Add(1)
	if emptyAnswer(q, buf.Bytes()) {
		r.empty.Add(1)
	}
	if traced {
		r.sampleMu.Lock()
		r.sampled = append(r.sampled, sampledRead{root: root, req: req, qi: qi, respLen: buf.Len()})
		r.sampleMu.Unlock()
	}
	return ok
}

// replaySampled replays every queued traced read, one at a time.
func (r *runner) replaySampled() error {
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	for _, sr := range r.sampled {
		if err := replayRead(r.tr, r.s.nm.Engine(), sr.root, sr.req, r.pool[sr.qi], sr.respLen, &r.lc); err != nil {
			return fmt.Errorf("replay %s: %w", r.pool[sr.qi].raw, err)
		}
	}
	r.sampled = nil
	return nil
}

// drawer returns a deterministic query-index stream: a Zipf draw of a
// bucket by rank and a uniform draw within it, or uniform draws made as
// a run of shuffled passes over the pool, so every query is asked
// equally often and the work a phase does varies little from seed to
// seed.
func (r *runner) drawer(stream string) func() int {
	rng := rand.New(rand.NewSource(seedFor(r.seed, stream)))
	if r.sp.zipf {
		b := r.sp.bucket
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(r.pool)/b-1))
		return func() int { return int(z.Uint64())*b + rng.Intn(b) }
	}
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = rng.Perm(len(r.pool))
		}
		qi := perm[0]
		perm = perm[1:]
		return qi
	}
}

// openPhase holds open-loop samples; draws[i] is request i's query.
type openPhase struct {
	res   openResult
	draws []int
}

func (ph *openPhase) add(o openPhase) {
	ph.res.latMs = append(ph.res.latMs, o.res.latMs...)
	ph.res.lateMs = append(ph.res.lateMs, o.res.lateMs...)
	ph.draws = append(ph.draws, o.draws...)
}

// openReads runs an open-loop read phase of length d over draw.
func (r *runner) openReads(d time.Duration, draw func() int, traced func(i int) bool) openPhase {
	n := int(math.Round(r.sp.readRate * d.Seconds()))
	draws := make([]int, n)
	for i := range draws {
		draws[i] = draw()
	}
	res := openLoop(r.sp.readers, r.sp.readRate, d, func(c, i int) (bool, time.Time) {
		ok := r.read(c, draws[i], traced(i))
		return ok, time.Now()
	})
	return openPhase{res: res, draws: draws}
}

// closedReads runs a closed-loop phase of length d, client c drawing
// from draws[c], adds the correct answers per query to ok and returns
// the attempts and the rate of correct answers.
func (r *runner) closedReads(d time.Duration, draws []func() int, ok []int32) (int, float64) {
	okPer := make([][]int32, r.sp.readers)
	for c := range okPer {
		okPer[c] = make([]int32, len(r.pool))
	}
	att, correct, el := closedLoop(r.sp.readers, d, func(c, _ int) bool {
		qi := draws[c]()
		if r.read(c, qi, false) {
			okPer[c][qi]++
			return true
		}
		return false
	})
	for _, o := range okPer {
		for i, v := range o {
			ok[i] += v
		}
	}
	return att, float64(correct) / el.Seconds()
}

func (r *runner) stats() (counters, error) {
	var buf bytes.Buffer
	status, err := r.c.get(r.s.base+"/stats", &buf, nil)
	if err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /stats: status %d", status)
	}
	return parseCounters(buf.Bytes())
}

// result is what a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the detailed record printed before the result line.
type report struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Sizes       map[string]any    `json:"sizes"`
	Evidence    map[string]detail `json:"evidence"`
	// Unbounded holds timings measured on every run but left out of the
	// result: their run-to-run spread is too wide for a regression bound
	// (see NOTES.md).
	Unbounded  map[string]metric `json:"unbounded,omitempty"`
	FirstError string            `json:"first_error,omitempty"`
	// Host holds the host probes taken when the run started and ended.
	Host []hostProbe `json:"host"`
}

// detail is one metric's evidence: how many samples it rests on and,
// for a percentile, how many lie beyond it.
type detail struct {
	Samples int  `json:"samples"`
	Beyond  *int `json:"beyond,omitempty"`
}

type outcome struct {
	res result
	rep report
}

func (o *outcome) set(name, unit string, v float64, samples int) {
	o.res.Metrics[name] = metric{Value: v, Unit: unit}
	o.rep.Evidence[name] = detail{Samples: samples}
}

func (o *outcome) setPct(name, unit string, p pct) {
	o.res.Metrics[name] = metric{Value: p.Value, Unit: unit}
	b := p.Beyond
	o.rep.Evidence[name] = detail{Samples: p.Samples, Beyond: &b}
}

// setUnbounded records a timing in the report only.
func (o *outcome) setUnbounded(name, unit string, v float64, samples int, beyond *int) {
	if o.rep.Unbounded == nil {
		o.rep.Unbounded = map[string]metric{}
	}
	o.rep.Unbounded[name] = metric{Value: v, Unit: unit}
	o.rep.Evidence[name] = detail{Samples: samples, Beyond: beyond}
}

func newOutcome() *outcome {
	return &outcome{
		res: result{Metrics: map[string]metric{}},
		rep: report{Sizes: map[string]any{}, Evidence: map[string]detail{}},
	}
}

// timed is what the timed phases produced.
type timed struct {
	open        []openPhase // untraced run: one; traced run: untraced and traced halves
	closedAtt   int
	closedOK    []int32   // correct closed-loop answers per query
	closedRates []float64 // correct answers per second in each round
	readDelta   counters  // traced run: /stats delta over the untraced half
}

// run executes one workload run.
func run(sp spec, seed int64, secs int, traced bool, work string) (_ *outcome, err error) {
	r := newRunner(sp, seed, secs, traced)
	defer r.c.close()
	out := newOutcome()
	if out.rep.Fingerprint, err = takeFingerprint(sp.name, seed, secs, traced); err != nil {
		return nil, err
	}

	// Inputs, all from the seed.
	base := sp.base(corpus.New(seedFor(seed, "corpus")))
	var inputBytes int64
	for _, d := range base {
		inputBytes += int64(len(d.Data))
	}
	if err := r.buildPool(base); err != nil {
		return nil, err
	}
	out.rep.Sizes["documents"] = len(base)
	out.rep.Sizes["input_bytes"] = inputBytes
	out.rep.Sizes["pool_queries"] = len(r.pool)
	out.rep.Sizes["kinds"] = kindCounts(r.pool)
	r.logf("inputs: %d documents, %d bytes, %d queries", len(base), inputBytes, len(r.pool))

	if r.workDir, err = os.MkdirTemp(work, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.workDir)
	if err := r.probeHost(out); err != nil {
		return nil, err
	}
	setupS, refDir, err := r.setupAll(base)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.s != nil {
			err = errors.Join(err, r.s.shutdown())
		}
	}()
	r.logf("set-up: %.3fs each", setupS)
	st0, err := r.stats()
	if err != nil {
		return nil, err
	}
	out.rep.Sizes["nodes"] = st0["nodes"]
	base = nil // from here on only the system under test holds the corpus

	warmFailed := r.warm()
	r.logf("warm-up: %d queries sent once", len(r.pool))
	w := &writer{nm: r.s.nm, base: r.s.base, c: r.c, ch: newChurn(seed), rate: sp.batchRate, ckptEvery: sp.ckptEvery, deletes: r.deletes, tr: r.tr}
	var t timed
	if traced {
		t, err = r.tracedPhases(w)
		if err != nil {
			return nil, err
		}
	} else {
		t = r.untracedPhases(w)
	}
	stEnd, err := r.stats()
	if err != nil {
		return nil, err
	}
	r.logf("timed phases done: %d batches written", w.batches)
	w.nm = nil // the writer is done; its instance must not outlive r.s

	// Heap with only the system under test reachable: the oracle's body
	// copies and the op log are the benchmark's and are subtracted.
	var heapMB float64
	if !traced {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		heapMB = float64(int64(m.HeapAlloc)-r.oracle.heldBytes()-opLogBytes(w.ops)) / 1e6
	}

	wrong, endErr, err := r.checkOracle(refDir, w.ops)
	if err != nil {
		return nil, err
	}
	r.logf("oracle: %d queries with wrong bodies, end state %v", len(wrong), endErr == nil)

	attempted, failed, correctClosed := tally(len(r.pool), warmFailed, t, w, wrong, endErr)
	if w.failReason != "" {
		r.noteErr(errors.New(w.failReason))
	}
	if endErr != nil {
		r.noteErr(endErr)
	}
	out.res.Attempted, out.res.Failed, out.res.Correct = attempted, failed, failed == 0
	out.rep.FirstError = r.firstError()
	out.rep.Sizes["churn_batches"] = w.batches
	out.rep.Sizes["churn_docs"] = w.docs
	out.rep.Sizes["empty_answer_frac"] = frac(r.empty.Load(), r.answered.Load())

	if traced {
		if err := r.tr.dump(filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed))); err != nil {
			return nil, err
		}
		r.layerMetrics(out, t.open, t.readDelta, delta(st0, stEnd), stEnd, w)
		return out, nil
	}

	reopenS, err := r.reopenCycles()
	if err != nil {
		return nil, err
	}
	r.logf("reopen: %.3fs each", reopenS)
	sutDir := r.s.cfg.Dir
	err = r.s.shutdown()
	r.s = nil
	if err != nil {
		return nil, err
	}
	disk, err := dirBytes(sutDir)
	if err != nil {
		return nil, err
	}
	late, err := r.lateSetupTimes()
	if err != nil {
		return nil, err
	}
	r.logf("late set-up: %.3fs each", late)
	setupS = append(setupS, late...)
	if err := r.probeHost(out); err != nil {
		return nil, err
	}

	out.set("setup_s", "s", median(setupS), len(setupS))
	lat := t.open[0].res.latMs
	p50, err := mustPercentile("read latency", lat, segments, 50)
	if err != nil {
		return nil, err
	}
	out.setUnbounded("read_p50_ms", "ms", p50.Value, p50.Samples, &p50.Beyond)
	// The rounds count answers checked as they arrived; scale by the
	// share the reference later confirmed (1 on a correct run).
	var okNow int
	for _, n := range t.closedOK {
		okNow += int(n)
	}
	out.setUnbounded("read_qps", "1/s", median(t.closedRates)*frac(int64(correctClosed), int64(okNow)), t.closedAtt, nil)
	v50, err := mustPercentile("visibility", w.visibleMs, segments, 50)
	if err != nil {
		return nil, err
	}
	out.setPct("visible_p50_ms", "ms", v50)
	p95 := segmentedPercentile(lat, segments, 95)
	out.setUnbounded("read_p95_ms", "ms", p95.Value, p95.Samples, &p95.Beyond)
	// A round's batches cannot support a p90; it is taken over all.
	v90 := percentile(append([]float64(nil), w.visibleMs...), 90)
	out.setUnbounded("visible_p90_ms", "ms", v90.Value, v90.Samples, &v90.Beyond)
	out.setUnbounded("reopen_s", "s", median(reopenS), len(reopenS), nil)
	out.set("heap_mb", "MB", heapMB, 1)
	out.set("disk_bytes_per_input_byte", "B/B", float64(disk)/float64(inputBytes+w.liveInputBytes()), 1)
	out.rep.Sizes["gen_late_ms_p99"] = percentile(t.open[0].res.lateMs, 99).Value
	out.rep.Sizes["closed_round_qps"] = t.closedRates
	return out, nil
}

// probeHost appends a host probe to the report.
func (r *runner) probeHost(out *outcome) error {
	p, err := probeHost(r.workDir)
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	if len(out.rep.Host) > 0 {
		p.stealSince(out.rep.Host[0])
	}
	r.logf("host probe: cpu %.1fms, fsync %.2fms, steal %.1f%%", p.CPUMs, p.FsyncMs, p.StealPct)
	out.rep.Host = append(out.rep.Host, p)
	return nil
}

// newRunner prepares a run of sp; its client is capped at nproc
// connections for reading plus one for the writer.
func newRunner(sp spec, seed int64, secs int, traced bool) *runner {
	if n := runtime.NumCPU(); sp.readers > n {
		sp.readers = n
	}
	r := &runner{sp: sp, seed: seed, secs: float64(secs), traced: traced,
		oracle: newBodyOracle(), deletes: newDeleteLog(), start: time.Now(),
		c: newClient(sp.readers + 1), bufs: make([]bytes.Buffer, sp.readers)}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// buildPool draws the query pool from the base corpus's text.
func (r *runner) buildPool(base []corpus.Document) error {
	var err error
	if r.pool, err = buildPool(rand.New(rand.NewSource(seedFor(r.seed, "pool"))), scrapeText(base), r.sp.poolSize, r.sp.bucket); err != nil {
		return err
	}
	r.parsed = make([]xdb.Query, len(r.pool))
	for i, q := range r.pool {
		if r.parsed[i], err = xdb.Parse(q.raw); err != nil {
			return fmt.Errorf("pool query %s: %w", q.raw, err)
		}
	}
	return nil
}

// tally counts a run's operations: every read (warm-up, open and
// closed loop), every write batch and the end-state comparison.  The
// reference's verdict applies to every answer of a query it found
// wrong, and a failed read counts as over any latency limit.
func tally(poolN, warmFailed int, t timed, w *writer, wrong map[int]bool, endErr error) (attempted, failed, correctClosed int) {
	attempted = poolN + w.batches + w.failed + 1
	failed = warmFailed + len(wrong) + w.failed
	if endErr != nil {
		failed++
	}
	for _, ph := range t.open {
		for i, qi := range ph.draws {
			if wrong[qi] {
				ph.res.latMs[i] = failedSample
			}
			if ph.res.latMs[i] == failedSample {
				failed++
			}
		}
		attempted += len(ph.draws)
	}
	for qi, n := range t.closedOK {
		if !wrong[qi] {
			correctClosed += int(n)
		}
	}
	attempted += t.closedAtt
	failed += t.closedAtt - correctClosed
	return attempted, failed, correctClosed
}

// setupAll runs the measured set-up earlySetups times (once when
// traced), serves the last instance as r.s and returns each duration.
// The oracle's reference starts from a copy of the served store, taken
// after a checkpoint and outside the timing: two ingests of the same
// corpus may order a context's sections differently (see NOTES.md), so
// only a copy has the same answers byte for byte.
func (r *runner) setupAll(base []corpus.Document) ([]float64, string, error) {
	var wrap func(http.Handler) http.Handler
	reps := earlySetups
	if r.traced {
		wrap = r.tr.wrap
		reps = 1
	}
	var secs []float64
	for i := 0; i < reps; i++ {
		s, d, err := r.setupOnce(base, fmt.Sprintf("s%d", i), wrap)
		if err != nil {
			return nil, "", err
		}
		secs = append(secs, d)
		if i == reps-1 {
			r.s = s
			break
		}
		if err := s.discard(); err != nil {
			return nil, "", err
		}
	}
	if err := r.s.nm.DB().Checkpoint(); err != nil {
		return nil, "", fmt.Errorf("checkpoint before copying the reference: %w", err)
	}
	refDir := filepath.Join(r.workDir, "ref")
	return secs, refDir, copyDir(r.s.cfg.Dir, refDir)
}

// Set-ups per untraced run: earlySetups before the timed phases (the
// last one is served) and lateSetups after the served store is closed,
// so the samples of setup_s span the run instead of its first seconds.
// Set-ups are never timed while the served instance is live: its heap
// would change the garbage collector's work during the ingest.
const (
	earlySetups = 3
	lateSetups  = 2
)

// setupOnce runs one measured set-up in a fresh store directory.
// Untimed before it, debug.FreeOSMemory collects the previous instance
// and hands the freed heap back to the operating system, so every
// set-up starts from the state of a fresh process and pays for the
// memory it touches.  Without it, a set-up that reuses the pages of an
// earlier one ran up to 2x faster than one that did not.
func (r *runner) setupOnce(base []corpus.Document, name string, wrap func(http.Handler) http.Handler) (*sut, float64, error) {
	debug.FreeOSMemory()
	s, d, err := setup(core.Config{Dir: filepath.Join(r.workDir, name), CacheBytes: r.sp.cacheBytes}, base, r.c, wrap)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return s, d.Seconds(), nil
}

// lateSetupTimes runs the lateSetups set-ups that follow the served
// store's close, on a corpus generated again from the seed.
func (r *runner) lateSetupTimes() ([]float64, error) {
	base := r.sp.base(corpus.New(seedFor(r.seed, "corpus")))
	var secs []float64
	for i := 0; i < lateSetups; i++ {
		s, d, err := r.setupOnce(base, fmt.Sprintf("late%d", i), nil)
		if err != nil {
			return nil, err
		}
		secs = append(secs, d)
		if err := s.discard(); err != nil {
			return nil, err
		}
	}
	return secs, nil
}

// warm sends every pool query once, so the timed phases start with the
// caches holding the whole pool where they can.  It returns how many
// answers failed their check.
func (r *runner) warm() int {
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.sp.readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				qi := int(next.Add(1) - 1)
				if qi >= len(r.pool) {
					return
				}
				if !r.read(c, qi, false) {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(failed.Load())
}

// writeWhile runs fn, with the writer running alongside for d when the
// workload writes while reading.
func (r *runner) writeWhile(w *writer, d time.Duration, fn func()) {
	if !r.sp.writeWhileReading {
		fn()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(d)
	}()
	fn()
	wg.Wait()
}

func never(int) bool { return false }

// untracedPhases interleaves the read phases in `segments` rounds of
// open loop then closed loop, so each metric samples the machine at
// several points of the run and the median over rounds ignores a round
// that a burst of outside load spoiled.  On read-only workloads the
// writer then runs alone, also in `segments` rounds; writing earlier
// would change the answers the reads are checked against.
func (r *runner) untracedPhases(w *writer) timed {
	t := timed{open: make([]openPhase, 1), closedOK: make([]int32, len(r.pool))}
	openDraw := r.drawer("open")
	closedDraws := make([]func() int, r.sp.readers)
	for c := range closedDraws {
		closedDraws[c] = r.drawer(fmt.Sprintf("closed-%d", c))
	}
	round := func(share float64) time.Duration { return r.dur(share / segments) }
	r.writeWhile(w, r.dur(r.sp.openShare+r.sp.closedShare), func() {
		for i := 0; i < segments; i++ {
			r.settle()
			t.open[0].add(r.openReads(round(r.sp.openShare), openDraw, never))
			r.settle()
			att, rate := r.closedReads(round(r.sp.closedShare), closedDraws, t.closedOK)
			t.closedAtt += att
			t.closedRates = append(t.closedRates, rate)
		}
	})
	for i := 0; i < segments && !r.sp.writeWhileReading; i++ {
		r.settle()
		w.run(round(r.sp.writeShare()))
	}
	return t
}

// settle starts a phase from the same state each time: fresh client
// connections (so no round inherits a connection's placement from the
// one before) and a collected heap, but no GC while the writer runs
// alongside, whose work it would interrupt.
func (r *runner) settle() {
	r.c.close()
	if !r.sp.writeWhileReading {
		runtime.GC()
	}
}

// tracedPhases runs the open loop untraced, then traced with every
// other request sampled, replays the sampled requests and then, on
// read-only workloads, runs the writer traced.  The replays come before
// the writer so that they meet the result cache the requests met.
func (r *runner) tracedPhases(w *writer) (timed, error) {
	var t timed
	var err error
	half := r.dur(r.sp.openShare / 2)
	r.writeWhile(w, 2*half, func() {
		var before, after counters
		if before, err = r.stats(); err != nil {
			return
		}
		t.open = append(t.open, r.openReads(half, r.drawer("open-untraced"), never))
		if after, err = r.stats(); err != nil {
			return
		}
		t.readDelta = delta(before, after)
		r.tr.on.Store(true)
		t.open = append(t.open, r.openReads(half, r.drawer("open-traced"), func(i int) bool { return i%2 == 0 }))
	})
	if err != nil {
		return t, err
	}
	if err := r.replaySampled(); err != nil {
		return t, err
	}
	if !r.sp.writeWhileReading {
		w.run(r.dur(r.sp.writeShare()))
	}
	r.tr.on.Store(false)
	return t, nil
}

// checkOracle opens the reference from its copy of the set-up store,
// checks the bodies of the byte-checked workloads against it, replays
// the writer's acked op log into it and compares the end states.
func (r *runner) checkOracle(refDir string, ops []ackedOp) (wrong map[int]bool, endErr, err error) {
	ref, err := openReference(refDir)
	if err != nil {
		return nil, nil, err
	}
	defer func() { err = errors.Join(err, ref.Close()) }()
	wrong = map[int]bool{}
	if !r.sp.writeWhileReading {
		wrong, err = r.oracle.verify(func(qi int, buf *bytes.Buffer) error {
			if err := ref.Engine().ExecuteInto(r.parsed[qi], buf); err != nil {
				return fmt.Errorf("reference %s: %w", r.pool[qi].raw, err)
			}
			return nil
		}, func(qi int, got, want []byte) {
			// Keep the two bodies for diagnosis next to the span dumps.
			name := filepath.Join(filepath.Dir(r.workDir), fmt.Sprintf("mismatch-%s-seed%d-q%d", r.sp.name, r.seed, qi))
			os.WriteFile(name+".got", got, 0o644)
			os.WriteFile(name+".want", want, 0o644)
		})
		if err != nil {
			return nil, nil, err
		}
		for qi := range wrong {
			r.noteErr(fmt.Errorf("%s: body differs from the reference", r.pool[qi].raw))
		}
		r.logf("oracle: every distinct query's body checked against the reference")
	}
	if err := replay(ref, ops); err != nil {
		return nil, nil, err
	}
	r.logf("oracle: %d acked writes replayed into the reference", len(ops))
	return wrong, sameAnswers(r.s.nm.Engine(), ref.Engine(), endStateQueries(r.pool)), nil
}

// reopenCycles closes and reopens the store `reopens` times and returns
// each cycle's Close plus Open time; the last instance stays open as
// r.s.  A GC between the two, untimed, collects the closed instance, so
// the Open does not pay for its predecessor's garbage.
const reopens = 3

func (r *runner) reopenCycles() ([]float64, error) {
	cfg := r.s.cfg
	var secs []float64
	for i := 0; i < reopens; i++ {
		t0 := time.Now()
		err := r.s.shutdown()
		r.s = nil
		if err != nil {
			return nil, err
		}
		closeS := time.Since(t0)
		runtime.GC()
		t1 := time.Now()
		if r.s, err = openSUT(cfg); err != nil {
			return nil, err
		}
		secs = append(secs, (closeS + time.Since(t1)).Seconds())
	}
	return secs, nil
}

func frac(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func opLogBytes(ops []ackedOp) int64 {
	var n int64
	for _, op := range ops {
		for _, d := range op.ingest {
			n += int64(cap(d.Data))
		}
	}
	return n
}

func kindCounts(pool []query) map[string]int {
	out := map[string]int{}
	for _, q := range pool {
		out[q.kind]++
	}
	return out
}

// endStateQueries picks up to two queries of each plan kind, with
// limit= removed and the stylesheet share left out, for the end-state
// comparison: it compares whole answers as sets.
func endStateQueries(pool []query) []query {
	per := map[string]int{}
	seen := map[string]bool{}
	var picked []query
	for _, q := range pool {
		if q.xslt || per[q.kind] == 2 {
			continue
		}
		q.limit = 0
		q.raw = q.encode()
		if seen[q.raw] {
			continue
		}
		seen[q.raw] = true
		per[q.kind]++
		picked = append(picked, q)
	}
	sort.Slice(picked, func(i, j int) bool { return picked[i].raw < picked[j].raw })
	return picked
}
