package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"

	"sssj/internal/server"
)

// wireMatch is a match as a service reported it, in global item IDs.
type wireMatch struct {
	X, Y uint64
	Sim  float64
}

// clientTarget sends items through one server connection with the
// per-item ADD of server.Client; the session numbers items from off.
type clientTarget struct {
	c       *server.Client
	s       *passStream
	off     uint64
	matches []wireMatch
	busy    int64
	// check, when set, takes the matches instead of matches.
	check *passChecker
}

func (t *clientTarget) prepare(g uint64) {
	if t.check != nil {
		t.check.item(g)
	}
}

func (t *clientTarget) call(g uint64) error {
	it := t.s.item(g)
	id, ms, err := t.c.Add(it.Time, it.Vec)
	if errors.Is(err, server.ErrBusy) {
		t.busy++
	}
	if err != nil {
		return err
	}
	if id+t.off != g {
		return fmt.Errorf("item %d acknowledged as session item %d", g, id)
	}
	for _, m := range ms {
		m.X += t.off
		m.Y += t.off
		if t.check != nil {
			t.check.match(m)
			continue
		}
		t.matches = append(t.matches, wireMatch{X: m.X, Y: m.Y, Sim: m.Sim})
	}
	return nil
}

// runGen is the load generator of the service workloads: one process,
// one connection, open loop.
func runGen(jb job) (*roleResult, error) {
	w, err := workloadByName(jb.Workload)
	if err != nil {
		return nil, err
	}
	s := newPassStream(w, jb.Seed)
	c, err := server.Dial(jb.Addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	t := &clientTarget{c: c, s: s}
	// The generator shares its CPU with the service: collect its garbage
	// less often, so its own pauses delay fewer items.
	debug.SetGCPercent(400)
	r := newRunner(s, t, jb.First, jb.Inject)
	cal, err := newCalibrator(jb.WorkDir, w.kernel)
	if err != nil {
		return nil, err
	}
	res := &roleResult{}
	if err := measure(r, w, jb.Seconds, cal, res); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Next = r.attempted, r.failed, r.next
	if t.busy > 0 {
		logf("%d items refused BUSY", t.busy)
	}
	return res, writeMatches(matchesPath(jb.WorkDir), t.matches)
}

func matchesPath(dir string) string { return dir + "/gen-matches.bin" }

func writeMatches(path string, ms []wireMatch) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := binary.Write(bw, binary.LittleEndian, ms); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readMatches(path string) ([]wireMatch, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ms := make([]wireMatch, len(b)/24)
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, ms); err != nil && err != io.EOF {
		return nil, err
	}
	return ms, nil
}
