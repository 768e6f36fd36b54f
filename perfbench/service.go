package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"sssj"
	"sssj/internal/metrics"
	"sssj/internal/server"
	"sssj/internal/stream"
)

func serverArgs(w workload) []string {
	return []string{
		"-theta", strconv.FormatFloat(w.theta, 'g', -1, 64),
		"-lambda", strconv.FormatFloat(w.lambda, 'g', -1, 64),
		"-index", "L2",
	}
}

// startShards starts the two sssjd shard workers of a cluster.
func startShards(w workload, binDir, workDir, tag string) ([]*proc, error) {
	var ps []*proc
	for i := 0; i < 2; i++ {
		p, err := startServer("sssjd", filepath.Join(binDir, "sssjd"),
			filepath.Join(workDir, fmt.Sprintf("%s-shard%d.log", tag, i)),
			append(serverArgs(w), "-shard", fmt.Sprintf("%d/2", i))...)
		if err != nil {
			return ps, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// runService measures a service workload: set-up, the closed-loop
// throughput phase through the sssj client process, and the open-loop
// latency phase through the generator process; then checks every match
// the service sent and its work counters against an in-process replay.
func runService(w workload, o opts) (*roleResult, error) {
	s := newPassStream(w, o.seed)
	ref, err := loadOrBuildRef(o.refDir, w, o.seed, s)
	if err != nil {
		return nil, err
	}
	res := &roleResult{}
	cal, err := newCalibrator(o.workDir, w.kernel)
	if err != nil {
		return nil, err
	}

	// Every input of the client runs, written before anything is timed:
	// the warm-up, then consecutive segments of the throughput phase.
	first := uint64(w.warmItems)
	if err := writeItems(segmentPath(o.workDir, "warm"), s, 0, first); err != nil {
		return nil, err
	}
	seg := uint64(w.nominal * shareClosed * o.seconds / clientRuns)
	nT := seg * clientRuns
	for k := uint64(0); k < clientRuns; k++ {
		from := first + k*seg
		if err := writeItems(segmentPath(o.workDir, fmt.Sprint(k)), s, from, from+seg); err != nil {
			return nil, err
		}
	}

	// Set-up: start the service and warm its window through the sssj
	// client, several times, each between two calibrations.
	var u *proc
	warmOut := filepath.Join(o.workDir, "warm-matches.txt")
	raw, slow, err := cal.bracketed(setupRuns, func(k int) (float64, error) {
		if u != nil {
			u.stop()
		}
		t0 := time.Now()
		u, err = startServer("sssjd", filepath.Join(o.binDir, "sssjd"),
			filepath.Join(o.workDir, fmt.Sprintf("setup%d-sssjd.log", k)), serverArgs(w)...)
		if err != nil {
			return 0, err
		}
		if _, err := runClient(o.binDir, u.addr, w, segmentPath(o.workDir, "warm"), warmOut); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
		return time.Since(t0).Seconds(), nil
	})
	if u != nil {
		defer u.stop()
	}
	if err != nil {
		return nil, err
	}
	res.setup(raw, slow)
	matches, err := readClientMatches(warmOut)
	if err != nil {
		return nil, err
	}

	// Closed loop: the sssj client streams each segment through the
	// service's default session, one request per item. The throughput
	// is the median segment's, each at reference speed by the
	// calibrations around it, so one stall of the machine moves one
	// segment, not the result.
	rates, slow, err := cal.bracketed(clientRuns, func(k int) (float64, error) {
		out := filepath.Join(o.workDir, fmt.Sprintf("client-matches-%d.txt", k))
		d, err := runClient(o.binDir, u.addr, w, segmentPath(o.workDir, fmt.Sprint(k)), out)
		if err != nil {
			return 0, err
		}
		ms, err := readClientMatches(out)
		matches = append(matches, ms...)
		return float64(seg) / d.Seconds(), err
	})
	if err != nil {
		return nil, err
	}
	res.rates(rates, slow)

	// Open loop: the generator process.
	var gen roleResult
	jb := job{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Inject: o.inject,
		RefDir: o.refDir, WorkDir: o.workDir, Addr: u.addr, First: first + nT}
	if err := runRole(o.self, "gen", o.workDir, jb, &gen); err != nil {
		return nil, err
	}
	res.LatP50Us, res.LatP90Us, res.LatSamples, res.LagP99Us = gen.LatP50Us, gen.LatP90Us, gen.LatSamples, gen.LagP99Us
	res.CalibsS = append(cal.times, gen.CalibsS...)
	res.Attempted = int64(nT) + gen.Attempted
	res.Failed = gen.Failed
	genMatches, err := readMatches(matchesPath(o.workDir))
	if err != nil {
		return nil, err
	}

	// What the service says it did, read before it stops.
	c, err := server.Dial(u.addr)
	if err != nil {
		return nil, err
	}
	got, err := c.StatsJSON()
	c.Close()
	if err != nil {
		return nil, err
	}
	res.PeakRSSMB = u.stop()

	bad, problems, err := verifyService(w, s, ref, gen.Next, append(matches, genMatches...), got)
	if err != nil {
		return nil, err
	}
	res.Failed += bad
	res.Problems = append(res.Problems, problems...)
	return res, nil
}

// clientRuns is how many segments the closed-loop phase of a service
// workload is split into.
const clientRuns = 8

func segmentPath(dir, name string) string {
	return filepath.Join(dir, "client-items-"+name+".bin")
}

// writeItems writes global items [from, to) in the binary dataset format.
func writeItems(path string, s *passStream, from, to uint64) error {
	items := make([]stream.Item, 0, to-from)
	for g := from; g < to; g++ {
		items = append(items, s.item(g))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sssj.WriteBinary(f, items); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runClient streams a dataset file through the service with the sssj
// command's client mode and returns how long the process ran.
func runClient(binDir, addr string, w workload, input, output string) (time.Duration, error) {
	out, err := os.Create(output)
	if err != nil {
		return 0, err
	}
	defer out.Close()
	args := append(serverArgs(w), "-server", addr, "-format", "binary", "-input", input)
	cmd := command(filepath.Join(binDir, "sssj"), args...)
	cmd.Stdout = out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = runToEnd("sssj client", cmd)
	return time.Since(t0), err
}

// readClientMatches parses the sssj client's "x y sim dot dt" lines.
func readClientMatches(path string) ([]wireMatch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ms []wireMatch
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m wireMatch
		var dot, dt float64
		if _, err := fmt.Sscan(sc.Text(), &m.X, &m.Y, &m.Sim, &dot, &dt); err != nil {
			return nil, fmt.Errorf("sssj client output %q: %w", sc.Text(), err)
		}
		ms = append(ms, m)
	}
	return ms, sc.Err()
}

// verifyService replays global items [0, n) in-process and compares: the
// replay against the brute-force reference, pass by pass; the service's
// matches against the replay's; and the service's work counters against
// the replay's. It returns the number of items reported wrongly.
func verifyService(w workload, s *passStream, ref *passRef, n uint64, got []wireMatch, gotWork metrics.Counters) (int64, []string, error) {
	var st sssj.Stats
	j, err := sssj.New(sssj.Options{Theta: w.theta, Lambda: w.lambda, Index: sssj.IndexL2, Stats: &st})
	if err != nil {
		return 0, nil, err
	}
	check := newPassChecker(s, ref, 0, nil)
	var want []wireMatch
	for g := uint64(0); g < n; g++ {
		it := s.item(g)
		check.item(g)
		if err := j.ProcessTo(it, func(m sssj.Match) error {
			want = append(want, wireMatch{X: m.X, Y: m.Y, Sim: m.Sim})
			return check.match(m)
		}); err != nil {
			return 0, nil, err
		}
	}
	check.finish()
	bad := check.bad
	problems := check.problems

	byPair := func(a, b wireMatch) int {
		if a.X != b.X {
			return cmpU(a.X, b.X)
		}
		return cmpU(a.Y, b.Y)
	}
	slices.SortFunc(got, byPair)
	slices.SortFunc(want, byPair)
	wrong := map[uint64]bool{}
	i, k := 0, 0
	for i < len(got) || k < len(want) {
		switch {
		case k == len(want) || (i < len(got) && byPair(got[i], want[k]) < 0):
			wrong[got[i].X] = true
			i++
		case i == len(got) || byPair(got[i], want[k]) > 0:
			wrong[want[k].X] = true
			k++
		default:
			if math.Abs(got[i].Sim-want[k].Sim) > 1e-6 {
				wrong[got[i].X] = true
			}
			i++
			k++
		}
	}
	if len(wrong) > 0 {
		bad += int64(len(wrong))
		problems = append(problems, fmt.Sprintf("%d items: service matches differ from the in-process Joiner's (%d vs %d matches)", len(wrong), len(got), len(want)))
	}

	wantWork := workOf(st)
	if workOf(gotWork) != wantWork {
		bad += int64(n)
		problems = append(problems, fmt.Sprintf("service work counters %v, in-process %v", workOf(gotWork), wantWork))
	}
	return bad, problems, nil
}

func cmpU(a, b uint64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}
