package main

// Load generation: an open loop at a fixed offered rate for latency, a
// closed loop for throughput, both over at most nproc connections.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// openLoopTiming applies the open-loop timing rule to one request,
// all times measured from the phase start:
//
//   - due is when the schedule says the request is sent;
//   - free is when this client finished its previous request;
//   - send and done bracket the request on the wire.
//
// A request is timed from its due time, so a stall that holds a client
// past later due times counts against every request it delayed.  The
// one exception is the generator's own lateness: when the client was
// idle at the due time and only its sleep overshot (Go's timer wakes
// sub-millisecond sleeps up to a millisecond late), that overshoot,
// send - max(due, free), is the generator's fault.  It is removed from
// the latency and reported separately as late.
func openLoopTiming(due, free, send, done time.Duration) (latency, late time.Duration) {
	ready := due
	if free > ready {
		ready = free
	}
	late = send - ready
	if late < 0 {
		late = 0
	}
	return done - due - late, late
}

// openResult holds one open-loop phase's samples, indexed by request.
type openResult struct {
	latMs  []float64 // failedSample for failed or incorrect requests
	lateMs []float64
}

// openLoop issues n = rate*dur requests, request i due at i/rate after
// the phase start, from `clients` goroutines that each take the next
// due request when free.  op performs request i on client c and reports
// whether its answer was correct and when it was complete; the client
// is free again when op returns, which may be later (the writer deletes
// and checkpoints after its batch is visible).  openLoop returns when
// every request has completed.
func openLoop(clients int, rate float64, dur time.Duration, op func(c, i int) (ok bool, done time.Time)) openResult {
	n := int(math.Round(rate * dur.Seconds()))
	res := openResult{latMs: make([]float64, n), lateMs: make([]float64, n)}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var free time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				send := time.Since(start)
				ok, doneAt := op(c, i)
				lat, late := openLoopTiming(due, free, send, doneAt.Sub(start))
				res.lateMs[i] = ms(late)
				res.latMs[i] = ms(lat)
				if !ok {
					res.latMs[i] = failedSample
				}
				free = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return res
}

// closedLoop runs `clients` goroutines back to back for dur and returns
// how many requests were attempted and answered correctly, and the
// elapsed time.  op(c, k) performs client c's k-th request.
func closedLoop(clients int, dur time.Duration, op func(c, k int) bool) (attempted, correct int, elapsed time.Duration) {
	var att, ok atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				att.Add(1)
				if op(c, k) {
					ok.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return int(att.Load()), int(ok.Load()), time.Since(start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
