package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"sssj"
)

type joinerTarget struct {
	j     *sssj.Joiner
	s     *passStream
	check *passChecker
}

func (t *joinerTarget) prepare(g uint64) { t.check.item(g) }
func (t *joinerTarget) call(g uint64) error {
	return t.j.ProcessTo(t.s.item(g), t.check.match)
}

// steadyCheckpoint streams pass 0 into a fresh joiner and checkpoints the
// steady window it ends with, then streams pass 1 recording the work
// counters after each item. Both passes are checked against the
// brute-force reference.
func steadyCheckpoint(w workload, s *passStream, ref *passRef) (ckpt []byte, recorded []work, problems []string, err error) {
	var st sssj.Stats
	j, err := sssj.New(sssj.Options{Theta: w.theta, Lambda: w.lambda, Index: sssj.IndexL2, Stats: &st})
	if err != nil {
		return nil, nil, nil, err
	}
	check := newPassChecker(s, ref, 0, &st)
	n := s.n()
	recorded = make([]work, n)
	var buf bytes.Buffer
	for g := uint64(0); g < 2*n; g++ {
		if g == n {
			if err := j.Checkpoint(&buf); err != nil {
				return nil, nil, nil, err
			}
		}
		check.item(g)
		if err := j.ProcessTo(s.item(g), check.match); err != nil {
			return nil, nil, nil, err
		}
		if g >= n {
			recorded[g-n] = workOf(st).sub(check.startWork)
		}
	}
	check.finish()
	return buf.Bytes(), recorded, check.problems, nil
}

// runInproc is the in-process system under test: the public Joiner,
// restored from a checkpoint of a steady window, fed by one caller.
func runInproc(jb job) (*roleResult, error) {
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
	res := &roleResult{Problems: problems}

	cal, err := newCalibrator(jb.WorkDir, w.kernel)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	// Set-up: restore the steady window, several times, each from the
	// same collected heap. A set-up is the mean of resumesPerSetup
	// restores, timed between two calibrations: one restore is too
	// short to time steadily.
	var st sssj.Stats
	var j *sssj.Joiner
	raw, slow, err := cal.bracketed(setupRuns, func(int) (float64, error) {
		var d time.Duration
		for i := 0; i < resumesPerSetup; i++ {
			j = nil
			runtime.GC()
			t0 := time.Now()
			st = sssj.Stats{}
			if j, err = sssj.Resume(bytes.NewReader(ckpt), sssj.Options{Stats: &st}); err != nil {
				return 0, err
			}
			d += time.Since(t0)
		}
		return d.Seconds() / resumesPerSetup, nil
	})
	if err != nil {
		return nil, err
	}
	res.setup(raw, slow)

	n := s.n()
	check := newPassChecker(s, ref, n, &st)
	check.recorded = recorded
	r := newRunner(s, &joinerTarget{j: j, s: s, check: check}, n, jb.Inject)
	if err := measure(r, w, jb.Seconds, cal, res); err != nil {
		return nil, err
	}
	check.finish()

	res.Attempted = r.attempted
	res.Failed = r.failed + check.bad
	res.Problems = append(res.Problems, check.problems...)
	res.PeakRSSMB = ownPeakRSS()
	return res, nil
}

// Shares of a run's measuring time. The latency phase gets the larger
// share: its latencies spread most between runs.
const (
	shareClosed = 0.35
	shareOpen   = 0.65
)

// setupRuns is how many times a run sets the system under test up.
const setupRuns = 7

// resumesPerSetup is how many restores one set-up of rcv1-long times.
const resumesPerSetup = 6

// closedSlices is how many slices the in-process closed loop runs in,
// with a calibration between each two.
const closedSlices = 8

// maxLatencyChunks caps how many parts the latency phase is measured
// in; each part has at least 1000 samples, so that its p90 has a
// hundred beyond it. Short parts keep most of them clear of the
// machine's stalls of a few milliseconds, so the median part's p90 is
// the system's own.
const maxLatencyChunks = 160

// chunksPerCalib is how many latency chunks run between two
// calibrations.
const chunksPerCalib = 8

// openGiveUp is how late the open loop may run before it stops sending.
const openGiveUp = time.Second

// setup records the set-up times of a run, each at reference speed.
func (res *roleResult) setup(raw, slow []float64) {
	res.SetupRawS = raw
	for k := range raw {
		res.SetupS = append(res.SetupS, raw[k]/slow[k])
	}
}

// measure runs the in-process closed-loop throughput phase (a service's
// runs elsewhere, through the sssj client) and the fixed-rate open-loop
// latency phase, with the calibration kernel timed between their slices.
func measure(r *runner, w workload, seconds float64, cal *calibrator, res *roleResult) error {
	sec := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	if w.shape == shapeInproc {
		// The throughput is the median slice's, each slice's rate at
		// reference speed by the calibrations around it.
		rates, slow, err := cal.bracketed(closedSlices, func(int) (float64, error) {
			c := r.closed(sec(shareClosed) / closedSlices)
			return float64(c.items) / c.seconds, nil
		})
		if err != nil {
			return err
		}
		res.rates(rates, slow)
	}

	// The latency phase runs in chunks and reports the median chunk's
	// quantiles, so a short stall of the machine moves one chunk, not
	// the result. It runs at the machine's reference speed, in groups of
	// chunksPerCalib chunks between two calibrations: a group offers the
	// rate divided by the slowness before it, for as much longer, so a
	// contended machine runs as loaded as a quiet one instead of
	// queueing more, and its latencies are divided by the mean slowness
	// of the calibrations around it, to the kernel's latencyPower.
	chunks := min(maxLatencyChunks, max(1, int(w.rateL*sec(shareOpen).Seconds()/1000)))
	chunk := sec(shareOpen) / time.Duration(chunks)
	var p50s, p90s, lag99s []float64
	before, err := cal.slowness()
	if err != nil {
		return err
	}
	for k := 0; k < chunks; k += chunksPerCalib {
		var group []openResult
		for c := k; c < min(k+chunksPerCalib, chunks); c++ {
			o := r.open(w.rateL/before, time.Duration(float64(chunk)*before), openGiveUp)
			if o.backlog > 0 {
				logf("latency phase left %d items unsent at %.0f items/s", o.backlog, w.rateL)
			}
			group = append(group, o)
		}
		after, err := cal.slowness()
		if err != nil {
			return err
		}
		slow := math.Pow((before+after)/2, latencyPower[w.kernel])
		for _, o := range group {
			p50s = append(p50s, quantile(o.lat, 0.50)/1e3/slow)
			p90s = append(p90s, quantile(o.lat, 0.90)/1e3/slow)
			lag99s = append(lag99s, quantile(o.lag, 0.99)/1e3/slow)
			res.LatSamples += int64(len(o.lat))
		}
		before = after
	}
	res.LatP50Us, res.LatP90Us, res.LagP99Us = median(p50s), median(p90s), median(lag99s)
	res.CalibsS = cal.times
	logf("latency chunks at %.0f items/s: p50 %.0f us, p90 %.0f us", w.rateL, p50s, p90s)
	return nil
}

// rates records the closed-loop throughput of a run: the median of its
// slices' rates, each at reference speed.
func (res *roleResult) rates(raw, slow []float64) {
	var at []float64
	for k := range raw {
		at = append(at, raw[k]*slow[k])
	}
	res.Throughput = median(at)
	logf("closed-loop rates %.0f items/s at slowness %.3f", raw, slow)
}
