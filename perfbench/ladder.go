package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/cluster"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/server"
)

// The rungs of the layer ladder, bottom to top, and the spans' names.
const (
	rungStreaming = iota // streaming engine AddTo
	rungCore             // core.STR AddTo
	rungSSSJ             // sssj.Joiner.ProcessTo
	rungServer           // server.Client.Add to one sssjd session
	rungPing             // server.Client.Ping, the protocol floor
	rungCluster          // cluster.Coordinator.AddTo over two shard workers
	rungOpen             // the open-loop phase on the workload's top rung
)

var rungNames = []string{"streaming", "core", "sssj", "server", "ping", "cluster", "open"}

// span is one timed call into a layer, in ns since the ladder began.
// Spans of one item share its global ID.
type span struct {
	Rung       uint8
	Item       uint64
	Start, End int64
}

// ladder replays one workload's stream through every rung, one call per
// item, recording a span around each call. Spans stay in memory until
// the ladder writes them out at the end.
type ladder struct {
	s      *passStream
	base   time.Time
	spans  []span
	failed int64
	items  int64
}

func (l *ladder) now() int64 { return int64(time.Since(l.base)) }

type rungRun struct {
	dur     []int64 // per-call span durations, ns
	items   int64
	seconds float64
	allocs  float64 // heap allocations per item
}

func (r rungRun) mean() float64 { return mean(r.dur) }

// run calls items [from, to) through call. traced records a span per
// call; untraced only times the whole loop.
func (l *ladder) run(rung uint8, from, to uint64, traced bool, check *passChecker, call func(g uint64) error) rungRun {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var out rungRun
	if traced {
		out.dur = make([]int64, 0, to-from)
	}
	t0 := l.now()
	for g := from; g < to; g++ {
		if check != nil {
			check.item(g)
		}
		if !traced {
			if call(g) != nil {
				l.failed++
			}
			continue
		}
		a := l.now()
		err := call(g)
		b := l.now()
		if err != nil {
			l.failed++
		}
		l.spans = append(l.spans, span{Rung: rung, Item: g, Start: a, End: b})
		out.dur = append(out.dur, b-a)
	}
	out.seconds = float64(l.now()-t0) / 1e9
	runtime.ReadMemStats(&ms)
	out.items = int64(to - from)
	out.allocs = float64(ms.Mallocs-mallocs) / float64(out.items)
	l.items += out.items
	return out
}

// warmFrom is the first item within one horizon before global item g:
// sending items from there brings a fresh service to g's live window.
func (l *ladder) warmFrom(g uint64) uint64 {
	t := l.s.item(g).Time - l.s.tau - 1
	for g > 0 && l.s.item(g-1).Time >= t {
		g--
	}
	return g
}

func runLadder(jb job) (*roleResult, error) {
	w, err := workloadByName(jb.Workload)
	if err != nil {
		return nil, err
	}
	s := newPassStream(w, jb.Seed)
	ref, err := loadOrBuildRef(jb.RefDir, w, jb.Seed, s)
	if err != nil {
		return nil, err
	}
	ckpt, recorded, problems, err := steadyCheckpoint(w, s, ref)
	if err != nil {
		return nil, err
	}
	n := s.n()
	l := &ladder{s: s, base: time.Now(), spans: make([]span, 0, 8*n)}
	lay := map[string]float64{}
	var checks []*passChecker
	checker := func(first uint64, st *metrics.Counters) *passChecker {
		c := newPassChecker(s, ref, first, st)
		if st != nil {
			c.recorded = recorded
		}
		checks = append(checks, c)
		return c
	}

	// Checkpoint of the steady window: save, restore, size.
	j0, err := sssj.Resume(bytes.NewReader(ckpt), sssj.Options{})
	if err != nil {
		return nil, err
	}
	var saves, resumes []float64
	for k := 0; k < 5; k++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := j0.Checkpoint(&buf); err != nil {
			return nil, err
		}
		saves = append(saves, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		if _, err := sssj.Resume(bytes.NewReader(buf.Bytes()), sssj.Options{}); err != nil {
			return nil, err
		}
		resumes = append(resumes, time.Since(t0).Seconds()*1e3)
	}
	lay["checkpoint.save_ms"] = median(saves)
	lay["checkpoint.resume_ms"] = median(resumes)
	lay["checkpoint.bytes"] = float64(len(ckpt))

	// Engine: the streaming index restored from the checkpoint.
	var est metrics.Counters
	idx, _, err := streaming.LoadFull(bytes.NewReader(ckpt), streaming.Options{Counters: &est})
	if err != nil {
		return nil, err
	}
	eng, ok := idx.(streaming.SinkIndex)
	if !ok {
		return nil, fmt.Errorf("restored index %T has no AddTo", idx)
	}
	c := checker(n, &est)
	w0 := workOf(est)
	pairs0 := est.Pairs
	engRun := l.run(rungStreaming, n, 2*n, true, c, func(g uint64) error {
		return eng.AddTo(s.item(g), func(m apss.Match) error { return c.match(m) })
	})
	dw := workOf(est).sub(w0)
	per := func(v int64) float64 { return float64(v) / float64(engRun.items) }
	lay["streaming.self_ns_p50"] = quantile(engRun.dur, 0.50)
	lay["streaming.self_ns_p99"] = quantile(engRun.dur, 0.99)
	lay["streaming.entries_per_item"] = per(dw[0])
	lay["streaming.candidates_per_item"] = per(dw[1])
	lay["streaming.full_dots_per_item"] = per(dw[2])
	lay["streaming.indexed_per_item"] = per(dw[3])
	lay["streaming.expired_per_item"] = per(dw[4])
	lay["streaming.candidate_yield"] = float64(est.Pairs-pairs0) / float64(dw[1])
	sz := eng.Size()
	lay["streaming.live_postings"] = float64(sz.PostingEntries)
	lay["streaming.live_residuals"] = float64(sz.Residuals)
	lay["streaming.allocs_per_item"] = engRun.allocs

	// core.STR over a restored index.
	var cst metrics.Counters
	idx2, _, err := streaming.LoadFull(bytes.NewReader(ckpt), streaming.Options{Counters: &cst})
	if err != nil {
		return nil, err
	}
	str := core.NewSTRFromIndex(idx2)
	c = checker(n, &cst)
	coreRun := l.run(rungCore, n, 2*n, true, c, func(g uint64) error {
		return str.AddTo(s.item(g), func(m apss.Match) error { return c.match(m) })
	})
	lay["core.self_ns_per_item"] = coreRun.mean() - engRun.mean()
	lay["core.allocs_per_item"] = coreRun.allocs - engRun.allocs

	// The public Joiner, restored with Resume. For the in-process
	// workload it is the top rung: run it untraced first, on its own
	// restored copy, for the tracing overhead.
	joinerRun := func(traced bool) (rungRun, *sssj.Joiner, *passChecker, error) {
		var st sssj.Stats
		j, err := sssj.Resume(bytes.NewReader(ckpt), sssj.Options{Stats: &st})
		if err != nil {
			return rungRun{}, nil, nil, err
		}
		c := checker(n, &st)
		r := l.run(rungSSSJ, n, 2*n, traced, c, func(g uint64) error { return j.ProcessTo(s.item(g), c.match) })
		return r, j, c, nil
	}
	var top target
	var untraced, traced rungRun
	if w.shape == shapeInproc {
		if untraced, _, _, err = joinerRun(false); err != nil {
			return nil, err
		}
	}
	sssjRun, j, jc, err := joinerRun(true)
	if err != nil {
		return nil, err
	}
	lay["sssj.self_ns_per_item"] = sssjRun.mean() - coreRun.mean()
	lay["sssj.allocs_per_item"] = sssjRun.allocs - coreRun.allocs
	if w.shape == shapeInproc {
		traced = sssjRun
		top = &joinerTarget{j: j, s: s, check: jc}
	}

	// One sssjd session over loopback, warmed to the pass's window.
	sc, err := server.Dial(jb.Addr)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	from := l.warmFrom(n)
	st := &clientTarget{c: sc, s: s, off: from, check: checker(n, nil)}
	l.run(rungServer, from, n, false, st.check, st.call)
	var srvRun rungRun
	if w.shape == shapeSession {
		// The session is this workload's top rung: pass 1 untraced, then
		// the same work again, traced, as pass 2.
		untraced = l.run(rungServer, n, 2*n, false, st.check, st.call)
		srvRun = l.run(rungServer, 2*n, 3*n, true, st.check, st.call)
		traced, top = srvRun, st
	} else {
		srvRun = l.run(rungServer, n, 2*n, true, st.check, st.call)
	}
	pingRun := l.run(rungPing, 0, 2000, true, nil, func(uint64) error { return sc.Ping() })
	lay["server.add_rtt_us_p50"] = quantile(srvRun.dur, 0.50) / 1e3
	lay["server.add_rtt_us_p99"] = quantile(srvRun.dur, 0.99) / 1e3
	lay["server.ping_rtt_us"] = quantile(pingRun.dur, 0.50) / 1e3
	lay["server.session_self_us"] = (srvRun.mean() - pingRun.mean() - sssjRun.mean()) / 1e3
	lay["server.busy_ratio"] = float64(st.busy) / float64(srvRun.items)

	// The cluster coordinator, in this process, over two shard workers.
	coord, err := cluster.Connect(cluster.Config{Kind: streaming.L2, Params: w.params(), Workers: jb.Shards,
		Dialer: server.Dialer{DialTimeout: 5 * time.Second, IOTimeout: 30 * time.Second}})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	cc := checker(n, nil)
	coordCall := func(g uint64) error { return coord.AddTo(s.item(g), func(m apss.Match) error { return cc.match(m) }) }
	l.run(rungCluster, from, n, false, cc, coordCall)
	cs0, err := coord.Stats()
	if err != nil {
		return nil, err
	}
	clRun := l.run(rungCluster, n, 2*n, true, cc, coordCall)
	cs1, err := coord.Stats()
	if err != nil {
		return nil, err
	}
	lay["cluster.addto_us_p50"] = quantile(clRun.dur, 0.50) / 1e3
	lay["cluster.addto_us_p99"] = quantile(clRun.dur, 0.99) / 1e3
	lay["cluster.self_us"] = (clRun.mean() - srvRun.mean()) / 1e3
	lay["cluster.candidates_per_item"] = float64(cs1.Candidates-cs0.Candidates) / float64(clRun.items)
	lay["cluster.full_dots_per_item"] = float64(cs1.FullDots-cs0.FullDots) / float64(clRun.items)

	lay["trace.throughput_items_s"] = float64(traced.items) / traced.seconds
	lay["trace.overhead_items_s"] = lay["trace.throughput_items_s"] - float64(untraced.items)/untraced.seconds

	// How late an open-loop generator runs against the top rung.
	r := newRunner(s, &spanTarget{l: l, t: top}, topNext(top), jb.Inject)
	o := r.open(w.rateL, time.Duration(shareOpen*jb.Seconds*float64(time.Second)), openGiveUp)
	lay["gen.lag_p99_us"] = quantile(o.lag, 0.99) / 1e3
	l.items += r.attempted
	l.failed += r.failed

	res := &roleResult{Layers: lay, Attempted: l.items, Failed: l.failed, Problems: problems}
	for _, c := range checks {
		c.finish()
		res.Failed += c.bad
		res.Problems = append(res.Problems, c.problems...)
	}
	return res, l.writeSpans(filepath.Join(jb.WorkDir, "spans.csv"))
}

// spanTarget records a span around each call of the open-loop phase.
type spanTarget struct {
	l *ladder
	t target
}

func (t *spanTarget) prepare(g uint64) { t.t.prepare(g) }
func (t *spanTarget) call(g uint64) error {
	a := t.l.now()
	err := t.t.call(g)
	t.l.spans = append(t.l.spans, span{Rung: rungOpen, Item: g, Start: a, End: t.l.now()})
	return err
}

// topNext is the next item the top rung expects.
func topNext(t target) uint64 {
	switch t := t.(type) {
	case *joinerTarget:
		return t.check.base + uint64(t.check.upto)
	case *clientTarget:
		return t.check.base + uint64(t.check.upto)
	}
	return 0
}

func (l *ladder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "layer,item,start_ns,end_ns")
	for _, sp := range l.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d\n", rungNames[sp.Rung], sp.Item, sp.Start, sp.End)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
