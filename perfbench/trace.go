package main

// Tracing for the traced run.  Nothing inside the program is
// instrumented: spans come from the benchmark's own code, around the
// HTTP handler (a wrapper over webdav.Server.Handler()) and around calls
// the benchmark replays into each layer's public functions after a
// sampled request, in the order the handler makes them.  All spans of a
// request share its ID.  Spans stay in memory and are written out when
// the run ends.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval, in time since the tracer's origin.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer collects spans.  on gates recording, so the traced run's
// untraced phase pays only an atomic load per request.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }
func (t *tracer) newID() uint64      { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(parent, req uint64, name string, fn func()) time.Duration {
	start := t.now()
	fn()
	end := t.now()
	t.record(span{Parent: parent, Req: req, Name: name, Start: start, End: end})
	return end - start
}

// traceHeader carries "<req>/<parent span>" from the client to the
// handler wrapper, so the handler span joins the request's tree.
const traceHeader = "X-Perfbench-Span"

// wrap times Server.Handler() for requests that carry traceHeader.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(traceHeader)
		if h == "" || !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		req, parent := parseTraceHeader(h)
		start := t.now()
		next.ServeHTTP(w, r)
		t.record(span{Parent: parent, Req: req, Name: "webdav.handler", Start: start, End: t.now()})
	})
}

func traceHeaderValue(req, parent uint64) string {
	return strconv.FormatUint(req, 10) + "/" + strconv.FormatUint(parent, 10)
}

func parseTraceHeader(h string) (req, parent uint64) {
	for i := 0; i < len(h); i++ {
		if h[i] == '/' {
			req, _ = strconv.ParseUint(h[:i], 10, 64)
			parent, _ = strconv.ParseUint(h[i+1:], 10, 64)
			return req, parent
		}
	}
	return 0, 0
}

// selfTime is a span's duration minus the part of its interval that its
// children cover.  Children may overlap each other or reach outside the
// parent (replayed calls run after the request ends); only the union of
// their intervals clipped to the parent counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach time.Duration
	reach = parent.Start
	for _, x := range ivs {
		if x.a > reach {
			reach = x.a
		}
		if x.b > reach {
			covered += x.b - reach
			reach = x.b
		}
	}
	return parent.dur() - covered
}

// selfTimes computes every span's self time.
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = selfTime(s, kids[s.ID])
	}
	return out
}

// byName returns the durations (or self times, when self is non-nil) of
// the spans with the given name, in microseconds.
func byName(spans []span, name string, self map[uint64]time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out = append(out, us(d))
	}
	return out
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
