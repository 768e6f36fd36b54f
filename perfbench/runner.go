package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// target is the system under test as the load loops see it.
type target interface {
	// prepare runs untimed before item g is sent (bookkeeping such as
	// checking a finished pass).
	prepare(g uint64)
	// call sends item g and returns once the system has answered it.
	call(g uint64) error
}

// runner feeds consecutive global items of a pass stream to a target,
// in a closed loop (next item when the previous one is answered) or an
// open loop (each item when it is due at a fixed rate).
type runner struct {
	s      *passStream
	t      target
	next   uint64  // next global item
	inject float64 // busy-wait this share of each call's duration after it
	base   time.Time

	attempted int64
	failed    int64
}

func newRunner(s *passStream, t target, first uint64, inject float64) *runner {
	return &runner{s: s, t: t, next: first, inject: inject, base: time.Now()}
}

func (r *runner) now() int64 { return int64(time.Since(r.base)) }

// send runs one item and returns when it was sent and answered.
func (r *runner) send() (sent, done int64) {
	g := r.next
	r.next++
	r.t.prepare(g)
	sent = r.now()
	err := r.t.call(g)
	done = r.now()
	if r.inject > 0 {
		done = r.spinUntil(done + int64(float64(done-sent)*r.inject))
	}
	r.attempted++
	if err != nil {
		r.failed++
	}
	return sent, done
}

func (r *runner) spinUntil(t int64) int64 {
	for {
		if n := r.now(); n >= t {
			return n
		}
	}
}

// waitUntil waits until t. It sleeps instead of spinning, so whatever
// the system under test still has to run between items (its garbage
// collector, its other goroutines or processes, all on the one measured
// CPU) runs while the caller waits, not inside the next call. How late
// the sleep wakes it is lag, which open does not count as latency.
func (r *runner) waitUntil(t int64) {
	if d := t - r.now(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		// A sleep cut short (EINTR) is finished by the loop below.
		_ = syscall.Nanosleep(&ts, nil)
	}
	for r.now() < t {
	}
}

type closedResult struct {
	items   int64
	seconds float64
}

// closed sends items back to back for at least d.
func (r *runner) closed(d time.Duration) closedResult {
	start := r.now()
	end := start + int64(d)
	var res closedResult
	for {
		_, done := r.send()
		res.items++
		if done >= end {
			res.seconds = float64(done-start) / 1e9
			return res
		}
	}
}

type openResult struct {
	lat     []int64 // per item, from when it was due to its answer to an on-time caller, ns
	lag     []int64 // per item, from when it was due to when it was sent, ns
	backlog int64   // items due within the phase but never sent
}

// open offers the items due within d at rate items/s, evenly spaced,
// and times each from when it was due. Even spacing, not the stream's
// own timestamps: the Tweets stream's bursts queue up to twenty items
// within microseconds, which made the session's p50 a sum of queued
// round trips that spread 0.32 over five runs.
//
// An item counts its wait behind the items before it, but not the
// caller's own lateness: a caller that shares its CPU with the system
// under test wakes up to hundreds of microseconds late, and that
// lateness follows the host's scheduling, not the system. So each
// item's latency is what an on-time caller would have seen with the
// round trips measured: it is sent when due or when the previous item
// was answered, whichever is later, and answered its round trip after
// that. The lateness itself is kept as lag. It gives up, counting the
// items not sent as backlog, once it runs more than giveUp late.
func (r *runner) open(rate float64, d time.Duration, giveUp time.Duration) openResult {
	n := int(rate*d.Seconds()) + 16
	res := openResult{lat: make([]int64, 0, n), lag: make([]int64, 0, n)}
	g0 := r.next
	start := r.now() + int64(50*time.Microsecond)
	end := start + int64(d)
	due := func(g uint64) int64 { return start + int64(float64(g-g0)*1e9/rate) }
	var prev int64 // when an on-time caller's previous item was answered
	for {
		dg := due(r.next)
		if dg >= end {
			return res
		}
		if r.now()-dg > int64(giveUp) {
			// Everything due before the end that was not sent is backlog.
			for g := r.next; due(g) < end; g++ {
				res.backlog++
			}
			return res
		}
		r.waitUntil(dg)
		sent, done := r.send()
		prev = max(dg, prev) + done - sent
		res.lat = append(res.lat, prev-dg)
		res.lag = append(res.lag, sent-dg)
	}
}

// quantile is the nearest-rank q-quantile of xs (not modified).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(s[k])
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
