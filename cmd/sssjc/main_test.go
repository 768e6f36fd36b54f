package main

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/server"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

func streamItem(id uint64, t float64, v vec.Vector) stream.Item {
	return stream.Item{ID: id, Time: t, Vec: v}
}

// startCoordinator boots sssjc with the given args on a random port and
// returns its address plus the exit channel.
func startCoordinator(t *testing.T, args []string) (string, chan error) {
	t.Helper()
	var logBuf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...), &logBuf, ready)
	}()
	select {
	case addr := <-ready:
		return addr, done
	case err := <-done:
		t.Fatalf("coordinator exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not become ready")
	}
	return "", nil
}

func shutdown(t *testing.T, done chan error) {
	t.Helper()
	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

// TestCoordinatorSpawnEndToEnd: sssjc -spawn 2 serves the plain ADD
// protocol, and BATCH frames of it, with matches identical to a
// single-process engine.
func TestCoordinatorSpawnEndToEnd(t *testing.T) {
	addr, done := startCoordinator(t, []string{"-spawn", "2", "-theta", "0.7", "-lambda", "0.01"})
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := core.NewSTRFull(streaming.L2, apss.Params{Theta: 0.7, Lambda: 0.01}, streaming.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vs := []vec.Vector{
		vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize(),
		vec.MustNew([]uint32{1, 2, 3}, []float64{1, 1, 0.2}).Normalize(),
		vec.MustNew([]uint32{4, 5}, []float64{1, 2}).Normalize(),
		vec.MustNew([]uint32{1, 2}, []float64{1, 1.1}).Normalize(),
	}
	for i, v := range vs {
		id, ms, err := c.Add(float64(i), v)
		if err != nil || id != uint64(i) {
			t.Fatalf("add %d: id=%d err=%v", i, id, err)
		}
		want, err := oracle.Add(streamItem(uint64(i), float64(i), v))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(want) {
			t.Fatalf("item %d: cluster %d matches, single %d", i, len(ms), len(want))
		}
	}
	// The coordinator serves BATCH frames through the same server code.
	batch := make([]stream.Item, len(vs))
	var want []apss.Match
	for i, v := range vs {
		id, ts := uint64(len(vs)+i), float64(len(vs)+i)
		batch[i] = streamItem(id, ts, v)
		ms, err := oracle.Add(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ms...)
	}
	if first, got, err := c.AddBatch(batch); err != nil || first != uint64(len(vs)) || len(got) != len(want) {
		t.Fatalf("batch: first=%d err=%v, cluster %d matches, single %d", first, err, len(got), len(want))
	}
	// Aggregated stats flow through the hosting server.
	counters, err := c.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if counters.Items != int64(2*len(vs)) {
		t.Fatalf("cluster Items = %d, want %d", counters.Items, 2*len(vs))
	}
	if sz, err := c.SizeInfo(); err != nil || sz.PostingEntries+sz.Residuals == 0 {
		t.Fatalf("cluster SizeInfo = %+v err=%v", sz, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shutdown(t, done)
}

// TestCoordinatorExternalWorkers: the -workers path against two worker
// servers, exercising the same wiring a multi-process deployment uses.
func TestCoordinatorExternalWorkers(t *testing.T) {
	const n = 2
	var addrs string
	for i := 0; i < n; i++ {
		shard := streaming.Shard{ID: i, N: n}
		srv, err := server.New(server.Config{
			Params: apss.Params{Theta: 0.7, Lambda: 0.01},
			NewJoiner: func(p apss.Params, c *metrics.Counters) (core.Joiner, error) {
				return core.NewSTRFull(streaming.L2, p, streaming.Options{Counters: c, Shard: shard})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		if i > 0 {
			addrs += ","
		}
		addrs += ln.Addr().String()
	}
	addr, done := startCoordinator(t, []string{"-workers", addrs, "-theta", "0.7", "-lambda", "0.01"})
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	_, ms, err := c.Add(1, v)
	if err != nil || len(ms) != 1 {
		t.Fatalf("cluster match: %v %v", ms, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	shutdown(t, done)
}

// TestCoordinatorBadFlags pins flag validation.
func TestCoordinatorBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{},                                 // neither -workers nor -spawn
		{"-spawn", "2", "-workers", "x:1"}, // both
		{"-spawn", "2", "-index", "NOPE"},
		{"-spawn", "2", "-join", "NOPE"},
		{"-spawn", "2", "-theta", "0"},
		{"-workers", "127.0.0.1:1", "-dial-timeout", "50ms", "-dial-retries", "0"}, // unreachable worker
	} {
		if err := run(args, &buf, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
