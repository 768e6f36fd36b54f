package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// passRef is the brute-force reference of one pass, per item of the
// pass: how many pairs the item closes as the later partner, and an
// order-free hash of its partners' offsets. first is the pass that
// starts from an empty window (pass 0); later is every pass after it.
type passRef struct {
	First, Later passDigest
}

type passDigest struct {
	Count []uint32
	Hash  []uint64
	Pairs int64
}

func newDigest(n int) passDigest {
	return passDigest{Count: make([]uint32, n), Hash: make([]uint64, n)}
}

func (d *passDigest) reset() {
	clear(d.Count)
	clear(d.Hash)
	d.Pairs = 0
}

// add records a match whose later item is x (offset in its pass); yrel
// is the partner's ID minus the first ID of x's pass, negative when the
// partner lies in the previous pass.
func (d *passDigest) add(x int, yrel int64) {
	d.Count[x]++
	d.Hash[x] += mix64(uint64(yrel))
	d.Pairs++
}

// mismatches counts the items in [0, upto) whose digest differs.
func (d *passDigest) mismatches(want *passDigest, upto int) int {
	bad := 0
	for i := 0; i < upto; i++ {
		if d.Count[i] != want.Count[i] || d.Hash[i] != want.Hash[i] {
			bad++
		}
	}
	return bad
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// loadOrBuildRef returns the brute-force reference of w's pass for seed,
// computing it with core.NewBruteForce once per seed and caching it under
// dir.
func loadOrBuildRef(dir string, w workload, seed int64, s *passStream) (*passRef, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-n%d-seed%d.gob", w.name, w.passItems, seed))
	if f, err := os.Open(path); err == nil {
		defer f.Close()
		var r passRef
		if err := gob.NewDecoder(f).Decode(&r); err == nil && len(r.Later.Count) == len(s.items) {
			return &r, nil
		}
	}
	r, err := bruteRef(w.params(), s)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return r, os.Rename(tmp, path)
}

// bruteRef joins the end of pass 0 followed by all of pass 1 by brute
// force. Pairs closed by pass-1 items are the reference of every pass
// after the first; dropping the partners that lie in pass 0 gives the
// reference of pass 0 itself. The pass-1 range is split in two halves
// joined concurrently, each half preceded by one horizon of history.
func bruteRef(params apss.Params, s *passStream) (*passRef, error) {
	n := s.n()
	// The history before pass 1: the pass-0 items within one horizon.
	first := int(n)
	for first > 0 && s.item(uint64(first-1)).Time >= s.item(n).Time-s.tau-1 {
		first--
	}
	var seq []stream.Item
	for g := uint64(first); g < 2*n; g++ {
		seq = append(seq, s.item(g))
	}
	ref := &passRef{First: newDigest(int(n)), Later: newDigest(int(n))}
	var mu sync.Mutex
	split := []uint64{n, n + n/2, 2 * n}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			lo, hi := split[h], split[h+1]
			bf, err := core.NewBruteForce(params, nil)
			if err != nil {
				errs[h] = err
				return
			}
			var local []apss.Match
			for _, it := range seq {
				if it.ID >= hi {
					break
				}
				if it.ID < lo && it.Time < s.item(lo).Time-s.tau-1 {
					continue
				}
				if err := bf.AddTo(it, func(m apss.Match) error {
					if m.X >= lo {
						local = append(local, m)
					}
					return nil
				}); err != nil {
					errs[h] = err
					return
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, m := range local {
				x := int(m.X - n)
				yrel := int64(m.Y) - int64(n)
				ref.Later.add(x, yrel)
				if yrel >= 0 {
					ref.First.add(x, yrel)
				}
			}
		}(h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// work is the subset of the counters the exact-work check compares.
type work [5]int64

func workOf(c metrics.Counters) work {
	return work{c.EntriesTraversed, c.Candidates, c.FullDots, c.IndexedEntries, c.ExpiredEntries}
}

func (a work) sub(b work) work {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// passChecker checks, pass by pass, that what a joiner reports matches
// the brute-force reference and, where recorded, that its work counters
// match the recorded per-item values of a later pass.
type passChecker struct {
	s        *passStream
	ref      *passRef
	recorded []work // cumulative work after each item of a later pass; nil = unchecked
	stats    *sssj.Stats

	pass      uint64
	base      uint64 // first ID of the current pass
	cur       passDigest
	upto      int // items of the current pass processed
	startWork work

	bad      int64
	problems []string
}

func newPassChecker(s *passStream, ref *passRef, first uint64, stats *sssj.Stats) *passChecker {
	c := &passChecker{s: s, ref: ref, stats: stats, cur: newDigest(len(s.items))}
	c.begin(first / s.n())
	return c
}

func (c *passChecker) begin(pass uint64) {
	c.pass = pass
	c.base = pass * c.s.n()
	c.cur.reset()
	c.upto = 0
	if c.stats != nil {
		c.startWork = workOf(*c.stats)
	}
}

// match records a match; matches of items before the checked range
// (a service's warm-up) are not checked.
func (c *passChecker) match(m sssj.Match) error {
	if m.X >= c.base {
		c.cur.add(int(m.X-c.base), int64(m.Y)-int64(c.base))
	}
	return nil
}

// item notes that global item g is about to be processed, closing the
// previous pass when g starts a new one.
func (c *passChecker) item(g uint64) {
	if g < c.base {
		return
	}
	if g/c.s.n() != c.pass {
		c.finish()
		c.begin(g / c.s.n())
	}
	c.upto = int(g%c.s.n()) + 1
}

// finish checks the processed part of the current pass.
func (c *passChecker) finish() {
	if c.upto == 0 {
		return
	}
	want := &c.ref.Later
	if c.pass == 0 {
		want = &c.ref.First
	}
	if bad := c.cur.mismatches(want, c.upto); bad > 0 {
		c.bad += int64(bad)
		c.problems = append(c.problems, fmt.Sprintf("pass %d: %d of %d items report other pairs than brute force", c.pass, bad, c.upto))
	}
	if c.recorded != nil && c.pass > 0 && c.stats != nil {
		got := workOf(*c.stats).sub(c.startWork)
		if want := c.recorded[c.upto-1]; got != want {
			c.bad += int64(c.upto)
			c.problems = append(c.problems, fmt.Sprintf("pass %d: work counters %v, recorded %v", c.pass, got, want))
		}
	}
	c.upto = 0
}
