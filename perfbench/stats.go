package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a percentile with fewer behind it is an anecdote, not a measurement.
const minBeyond = 10

// failedSample marks a failed or incorrect request in a latency sample
// set: it sorts after every real latency, so it counts as over any limit.
var failedSample = math.Inf(1)

// pct is one reported percentile with its evidence.
type pct struct {
	P       float64 `json:"p"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// supported reports whether enough samples lie beyond the percentile.
func (p pct) supported() bool { return p.Beyond >= minBeyond }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and how many samples lie strictly above it.  xs is sorted in
// place.  A percentile that lands on a failed sample is reported as
// failedValue, a finite stand-in JSON can carry.
func percentile(xs []float64, p float64) pct {
	out := pct{P: p, Samples: len(xs)}
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	v := xs[rank-1]
	out.Beyond = len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > v })
	if math.IsInf(v, 1) {
		v = failedValue
	}
	out.Value = v
	return out
}

// failedValue stands in for a percentile that lands on a failed
// request: far above any real latency, and still a JSON number.
const failedValue = 1e9

// mustPercentile is segmentedPercentile over k slices plus the
// ten-beyond rule: a run whose sample count cannot support the
// percentile its metric names fails.
func mustPercentile(name string, xs []float64, k int, p float64) (pct, error) {
	r := segmentedPercentile(xs, k, p)
	if !r.supported() {
		return r, fmt.Errorf("%s: p%g over %d slices of %d samples has %d beyond it, need %d", name, p, k, r.Samples, r.Beyond, minBeyond)
	}
	return r, nil
}

// segments is how many rounds a run's timed phases are interleaved in,
// and so how many slices the robust estimators split a phase into: a
// burst of noise from outside the system (another tenant, a page-cache
// flush) then spoils one slice, and the median over slices ignores it.
const segments = 5

// segmentedPercentile splits xs, in time order, into k equal slices,
// takes the p-th percentile of each and returns their median.  Beyond
// is the smallest count beyond the percentile in any slice, so the
// ten-beyond rule holds for every slice.
func segmentedPercentile(xs []float64, k int, p float64) pct {
	vals := make([]float64, 0, k)
	out := pct{P: p, Samples: len(xs), Beyond: len(xs)}
	for s := 0; s < k; s++ {
		part := append([]float64(nil), xs[s*len(xs)/k:(s+1)*len(xs)/k]...)
		sp := percentile(part, p)
		vals = append(vals, sp.Value)
		if sp.Beyond < out.Beyond {
			out.Beyond = sp.Beyond
		}
	}
	out.Value = median(vals)
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// counters is a flattened /stats payload: dotted JSON paths to numbers
// ("cache.hits", "wal.syncs").  Booleans and strings are dropped.
type counters map[string]float64

// parseCounters flattens a /stats body.
func parseCounters(body []byte) (counters, error) {
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := counters{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				if prefix != "" {
					k = prefix + "." + k
				}
				walk(k, child)
			}
		case float64:
			out[prefix] = x
		}
	}
	walk("", v)
	return out, nil
}

// delta is after minus before for every counter present in after.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is d[num] / (d[num] + d[other]), 0 when both are zero.
func (d counters) ratio(num, other string) float64 {
	n, o := d[num], d[other]
	if n+o == 0 {
		return 0
	}
	return n / (n + o)
}
