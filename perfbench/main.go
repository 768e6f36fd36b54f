// Command perfbench is the repository's benchmark. It runs one workload
// of the streaming similarity self-join, checks every match and the
// engine's work counters against a brute-force reference, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload rcv1-long --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of the layer ladder, and
// the spans behind them are written to .bench_build/work. See
// perfbench/README.md for the workloads, metrics and predictions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	inject   float64
	binDir   string
	workDir  string
	refDir   string
	self     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits lists every per-layer metric a traced run reports.
var layerUnits = [][2]string{
	{"streaming.self_ns_p50", "ns"},
	{"streaming.self_ns_p99", "ns"},
	{"streaming.entries_per_item", "count"},
	{"streaming.candidates_per_item", "count"},
	{"streaming.full_dots_per_item", "count"},
	{"streaming.indexed_per_item", "count"},
	{"streaming.expired_per_item", "count"},
	{"streaming.candidate_yield", "ratio"},
	{"streaming.live_postings", "count"},
	{"streaming.live_residuals", "count"},
	{"streaming.allocs_per_item", "count"},
	{"core.self_ns_per_item", "ns"},
	{"core.allocs_per_item", "count"},
	{"sssj.self_ns_per_item", "ns"},
	{"sssj.allocs_per_item", "count"},
	{"server.add_rtt_us_p50", "us"},
	{"server.add_rtt_us_p99", "us"},
	{"server.ping_rtt_us", "us"},
	{"server.session_self_us", "us"},
	{"server.busy_ratio", "ratio"},
	{"cluster.addto_us_p50", "us"},
	{"cluster.addto_us_p99", "us"},
	{"cluster.self_us", "us"},
	{"cluster.candidates_per_item", "count"},
	{"cluster.full_dots_per_item", "count"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.resume_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"gen.lag_p99_us", "us"},
	{"trace.throughput_items_s", "items/s"},
	{"trace.overhead_items_s", "items/s"},
}

// job is what a child role is told; the parent writes it as JSON.
type job struct {
	Workload string
	Seed     int64
	Seconds  float64
	Inject   float64
	RefDir   string
	WorkDir  string
	Addr     string   // gen: the server to load; ladder: the plain sssjd
	Shards   []string // ladder: shard workers for the cluster rung
	First    uint64   // gen: first global item to send
	Kernel   string   // calib: which kernel to time
}

// roleResult is what a child role reports back. Timing figures are at
// the machine's reference speed (see calib.go) unless named raw.
type roleResult struct {
	SetupS     []float64
	SetupRawS  []float64
	CalibS     float64   // calib: the kernel's time, s
	CalibsS    []float64 // every calibration of the run, s
	Throughput float64
	LatP50Us   float64
	LatP90Us   float64
	LatSamples int64
	LagP99Us   float64
	Attempted  int64
	Failed     int64
	Problems   []string
	PeakRSSMB  float64
	Next       uint64             // gen: first global item not sent
	Layers     map[string]float64 // ladder: per-layer metrics
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var o opts
	role := flag.String("role", "", "internal: run as a child role (inproc, gen, ladder, calib, echo)")
	jobPath := flag.String("job", "", "internal: the child role's job file")
	flag.StringVar(&o.workload, "workload", "", "workload to run: rcv1-long or tweets-short-session")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time of the run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced ladder run")
	flag.Float64Var(&o.inject, "inject", 0, "sensitivity check: busy-wait this share of each measured call's duration after it")
	flag.StringVar(&o.binDir, "bin", ".bench_build/bin", "directory of the built sssjd and sssj binaries")
	flag.StringVar(&o.workDir, "work", ".bench_build/work", "directory for generated inputs, logs, spans and the reference cache")
	flag.Parse()

	if *role != "" {
		if err := runChild(*role, *jobPath); err != nil {
			logf("%s: %v", *role, err)
			os.Exit(1)
		}
		return
	}
	stopOnSignal()
	res, err := run(o)
	stopAll()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func runChild(role, jobPath string) error {
	b, err := os.ReadFile(jobPath)
	if err != nil {
		return err
	}
	var jb job
	if err := json.Unmarshal(b, &jb); err != nil {
		return err
	}
	var res *roleResult
	switch role {
	case "inproc":
		res, err = runInproc(jb)
	case "gen":
		res, err = runGen(jb)
	case "ladder":
		res, err = runLadder(jb)
	case "calib":
		res, err = runCalib(jb)
	case "echo":
		return runEcho(jb)
	default:
		err = fmt.Errorf("unknown role %q", role)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func run(o opts) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) || o.seconds > 120 {
		return nil, fmt.Errorf("--seconds must be in (0, 120], got %v", o.seconds)
	}
	if o.self, err = os.Executable(); err != nil {
		return nil, err
	}
	for _, d := range []*string{&o.binDir, &o.workDir} {
		if *d, err = filepath.Abs(*d); err != nil {
			return nil, err
		}
	}
	for _, b := range []string{"sssjd", "sssj"} {
		if _, err := os.Stat(filepath.Join(o.binDir, b)); err != nil {
			return nil, fmt.Errorf("system under test not built: %w", err)
		}
	}
	o.refDir = filepath.Join(o.workDir, "ref")
	o.workDir = filepath.Join(o.workDir, fmt.Sprintf("%s-trace%d", w.name, o.trace))
	if err := os.RemoveAll(o.workDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	logf("workload %s seed %d seconds %g trace %d inject %g; nproc %d GOMAXPROCS %d %s; measured processes on CPU %q",
		w.name, o.seed, o.seconds, o.trace, o.inject, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), pinCPU)

	// The brute-force reference, built once per seed and cached.
	if _, err := loadOrBuildRef(o.refDir, w, o.seed, newPassStream(w, o.seed)); err != nil {
		return nil, err
	}

	var rr *roleResult
	switch {
	case o.trace == 1:
		rr, err = runTraced(w, o)
	case w.shape == shapeInproc:
		rr = new(roleResult)
		err = runRole(o.self, "inproc", o.workDir, o.job(w), rr)
	default:
		rr, err = runService(w, o)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range rr.Problems {
		logf("check failed: %s", p)
	}
	res := &result{
		Correct:   len(rr.Problems) == 0 && rr.Failed == 0 && rr.Attempted > 0,
		Attempted: rr.Attempted,
		Failed:    rr.Failed,
		Metrics:   map[string]metric{},
	}
	if o.trace == 1 {
		for _, lu := range layerUnits {
			v, ok := rr.Layers[lu[0]]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("traced run did not measure %s", lu[0])
			}
			res.Metrics[lu[0]] = metric{v, lu[1]}
		}
		return res, nil
	}
	ok := 1.0
	if rr.Attempted > 0 {
		ok = 1 - float64(rr.Failed)/float64(rr.Attempted)
	}
	logf("raw set-up %.4f s; calibrations %.4f s; generator lag p99 %.1f us", rr.SetupRawS, rr.CalibsS, rr.LagP99Us)
	res.Metrics = map[string]metric{
		"throughput_items_s": {rr.Throughput, "items/s"},
		"latency_p50_us":     {rr.LatP50Us, "us"},
		"latency_p90_us":     {rr.LatP90Us, "us"},
		"latency_samples":    {float64(rr.LatSamples), "count"},
		"setup_s":            {median(rr.SetupS), "s"},
		"peak_rss_mb":        {rr.PeakRSSMB, "MB"},
		"success_ratio":      {ok, "ratio"},
	}
	return res, nil
}

func (o opts) job(w workload) job {
	return job{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Inject: o.inject, RefDir: o.refDir, WorkDir: o.workDir}
}

// runTraced starts the servers the ladder needs (one sssjd and two
// shard workers) and runs it.
func runTraced(w workload, o opts) (*roleResult, error) {
	p, err := startServer("sssjd", filepath.Join(o.binDir, "sssjd"), filepath.Join(o.workDir, "ladder-sssjd.log"), serverArgs(w)...)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	shards, err := startShards(w, o.binDir, o.workDir, "ladder")
	defer func() {
		for _, p := range shards {
			p.stop()
		}
	}()
	if err != nil {
		return nil, err
	}
	jb := o.job(w)
	jb.Addr = p.addr
	jb.Shards = []string{shards[0].addr, shards[1].addr}
	rr := new(roleResult)
	if err := runRole(o.self, "ladder", o.workDir, jb, rr); err != nil {
		return nil, err
	}
	logf("spans written to %s", filepath.Join(o.workDir, "spans.csv"))
	return rr, nil
}
