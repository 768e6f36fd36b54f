package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// The machine this benchmark runs on is shared: other tenants' memory
// traffic slows it by up to a third for tens of seconds at a time, which
// would swamp the differences a run is meant to show. So a run also
// times a fixed calibration kernel on the measured CPU, between its
// measuring steps, and reports every timing metric at the machine's
// reference speed: rates multiplied, durations divided, by the slowness
// of the calibrations around them, calibration time over the kernel's
// reference time. The kernels are this file's own code and data, and
// they run in processes of their own (the calib and echo roles), so no
// change to the system under test, its heap or its garbage collector
// can move them.
//
// There are two kernels, as contention slows an engine's query path and
// a service's request path differently. The memory kernel resembles the
// engine's query path (rcv1-long). The service kernel is the memory
// kernel followed by loopback round trips between two processes, as a
// request path mixes engine work with context switches and socket calls
// (tweets-short-session). Over five 20-second runs of the session
// workload, its set-up and throughput spread less at the service
// kernel's slowness than at either part's alone.
const (
	kernelMemory  = "memory"
	kernelService = "service"
)

// calibRef is each kernel's time on the reference machine at its quiet
// speed (see README.md); it only fixes the scale of reported figures.
var calibRef = map[string]time.Duration{
	kernelMemory:  60 * time.Millisecond,
	kernelService: 100 * time.Millisecond,
}

// latencyPower is the power of a kernel's slowness that open-loop
// latencies are divided by. The open loop's items arrive at an idle CPU
// whose caches other tenants have used meanwhile, so contention slows
// them more than the memory kernel, which runs warm. Over three sets of
// ten rcv1-long runs, the power 1.5 kept latency_p50_us's spread within
// 0.11 and the sets' medians within 18% of each other; the power 1 let
// one set spread 0.25, and the power 2 moved the medians 25% between
// sets. The service kernel's round trips already start from an idle
// CPU.
var latencyPower = map[string]float64{
	kernelMemory:  1.5,
	kernelService: 1,
}

// The memory kernel is a small inverted-index self-join: 6,000 sparse vectors
// (8 Zipf-popular dimensions of 4,300, as in the RCV1 profile), each
// scanning the posting lists of its dimensions over a window of the
// 3,600 before it into a dense accumulator, then appending itself. Its
// memory traffic resembles the engine's query path, so the two slow
// down together when the machine is contended.
const (
	calibItems  = 6000
	calibWindow = 3600
	calibDims   = 4300
)

type calibVec struct {
	dims []uint32
	vals []float64
}

type calibPost struct {
	id  int32
	val float64
}

var calibSet = func() []calibVec {
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, 1.25, 1, calibDims-1)
	set := make([]calibVec, calibItems)
	for i := range set {
		seen := map[uint32]bool{}
		var v calibVec
		for len(v.dims) < 8 {
			d := uint32(z.Uint64())
			if !seen[d] {
				seen[d] = true
				v.dims = append(v.dims, d)
				v.vals = append(v.vals, r.Float64())
			}
		}
		set[i] = v
	}
	return set
}()

var (
	// calibLists holds each dimension's postings; calibHead[d] is the
	// first of list d still in the window. Every list has room for all
	// of its postings, made and written once up front, so calibrate
	// neither allocates, nor faults pages in, nor moves postings.
	calibLists = func() [][]calibPost {
		n := make([]int, calibDims)
		for _, v := range calibSet {
			for _, d := range v.dims {
				n[d]++
			}
		}
		lists := make([][]calibPost, calibDims)
		for d := range lists {
			lists[d] = make([]calibPost, n[d])
			clear(lists[d])
		}
		return lists
	}()
	calibHead = make([]int, calibDims)
	calibAcc  = make([]float64, calibItems)
	calibSink float64
)

// calibrate runs the kernel once and returns how long it took.
func calibrate() time.Duration {
	t0 := time.Now()
	for d := range calibLists {
		calibLists[d] = calibLists[d][:0]
		calibHead[d] = 0
	}
	s := 0.0
	for i, v := range calibSet {
		lo := int32(i - calibWindow)
		for k, d := range v.dims {
			l := calibLists[d]
			h := calibHead[d]
			for h < len(l) && l[h].id < lo {
				h++
			}
			calibHead[d] = h
			for _, p := range l[h:] {
				calibAcc[p.id] += p.val * v.vals[k]
			}
			calibLists[d] = append(l, calibPost{int32(i), v.vals[k]})
		}
		for j := max(0, i-calibWindow); j < i; j += 97 {
			s += calibAcc[j]
		}
	}
	clear(calibAcc)
	calibSink += s
	return time.Since(t0)
}

// The service kernel's round trips are switchTrips round trips of a 64-byte message
// over loopback TCP between the calib process and an echo process, both
// on the measured CPU: a context switch and two socket calls each way,
// as in a service's request path.
const switchTrips = 2000

// switchKernel starts the echo role, times switchTrips round trips to
// it after an untimed tenth as many, and stops it.
func switchKernel(dir string) (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	jobPath := filepath.Join(dir, "echo-job.json")
	if err := os.WriteFile(jobPath, []byte(fmt.Sprintf(`{"Addr":%q}`, ln.Addr())), 0o644); err != nil {
		return 0, err
	}
	// The echo process dials back at once; a deadline keeps a failed
	// start from hanging the run.
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		return 0, err
	}
	cmd := command(self, "-role", "echo", "-job", jobPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	p := &proc{name: "echo", cmd: cmd, done: make(chan struct{})}
	register(p)
	defer p.stop()
	conn, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := make([]byte, 64)
	trip := func() error {
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(conn, buf)
		return err
	}
	for i := 0; i < switchTrips/10; i++ {
		if err := trip(); err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	for i := 0; i < switchTrips; i++ {
		if err := trip(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// runEcho is the echo role: it sends back every 64-byte message until
// the calib process hangs up.
func runEcho(jb job) error {
	conn, err := net.Dial("tcp", jb.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 64)
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return nil
		}
		if _, err := conn.Write(buf); err != nil {
			return nil
		}
	}
}

// runCalib is the calib role: one timing of a kernel in a fresh
// process. The memory part runs once untimed first, to warm the caches,
// and is timed after a collection, so no garbage collector runs during
// it.
func runCalib(jb job) (*roleResult, error) {
	calibrate()
	runtime.GC()
	d := calibrate()
	if jb.Kernel == kernelService {
		sw, err := switchKernel(jb.WorkDir)
		if err != nil {
			return nil, err
		}
		d += sw
	}
	return &roleResult{CalibS: d.Seconds()}, nil
}

// calibrator times a kernel in calib-role processes on the measured CPU
// and keeps every time it took.
type calibrator struct {
	self, dir, kernel string
	times             []float64 // s
}

func newCalibrator(dir, kernel string) (*calibrator, error) {
	self, err := os.Executable()
	return &calibrator{self: self, dir: dir, kernel: kernel}, err
}

// slowness times the kernel once and returns how much slower than its
// reference speed the machine ran it: above 1 when slower.
func (c *calibrator) slowness() (float64, error) {
	var rr roleResult
	if err := runRole(c.self, "calib", c.dir, job{Kernel: c.kernel, WorkDir: c.dir}, &rr); err != nil {
		return 0, err
	}
	c.times = append(c.times, rr.CalibS)
	return rr.CalibS / calibRef[c.kernel].Seconds(), nil
}

// bracketed runs step n times, timing the kernel before the first step
// and after each one, and returns each step's figure with the mean
// slowness of the two calibrations around it.
func (c *calibrator) bracketed(n int, step func(k int) (float64, error)) (figs, slow []float64, err error) {
	before, err := c.slowness()
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < n; k++ {
		f, err := step(k)
		if err != nil {
			return nil, nil, err
		}
		after, err := c.slowness()
		if err != nil {
			return nil, nil, err
		}
		figs = append(figs, f)
		slow = append(slow, (before+after)/2)
		before = after
	}
	return figs, slow, nil
}
