package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// feedBatch pushes items through AddBatch in frames of at most size
// items, cutting a frame wherever a foreign stream switches side (SIDE
// applies to the connection), and collects every reported match.
func feedBatch(t *testing.T, c *Client, items []stream.Item, foreign bool, side *apss.Side, size int) []apss.Match {
	t.Helper()
	var out []apss.Match
	for len(items) > 0 {
		if foreign && items[0].Side != *side {
			if err := c.Side(items[0].Side); err != nil {
				t.Fatal(err)
			}
			*side = items[0].Side
		}
		n := 1
		for n < len(items) && n < size && (!foreign || items[n].Side == *side) {
			n++
		}
		_, ms, err := c.AddBatch(items[:n])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
		items = items[n:]
	}
	return out
}

// TestBatchParityGrid: for {INV, L2, L2AP} × {self, foreign} × δ ∈ {0, 1},
// a stream fed in BATCH frames produces exactly the matches — same
// values, same order — and exactly the counters of the same stream fed
// one ADD at a time.
func TestBatchParityGrid(t *testing.T) {
	for _, index := range []string{"INV", "L2", "L2AP"} {
		for _, foreign := range []bool{false, true} {
			items := migStream(21, 300, foreign)
			for _, lateness := range []float64{0, 1} {
				t.Run(fmt.Sprintf("%s/foreign=%v/delta=%g", index, foreign, lateness), func(t *testing.T) {
					opts := []string{"theta=0.6", "lambda=0.1", "index=" + index, fmt.Sprintf("lateness=%g", lateness)}
					if foreign {
						opts = append(opts, "join=foreign")
					}
					feed := items
					if lateness > 0 {
						feed = stream.ShuffleWithin(items, lateness*0.9, 5)
					}
					s := startServer(t, Config{})
					run := func(name string, batched bool) ([]apss.Match, metrics.Counters) {
						c := dialT(t, s)
						if err := c.Session(name, opts...); err != nil {
							t.Fatal(err)
						}
						side := apss.SideA
						var got []apss.Match
						if batched {
							got = feedBatch(t, c, feed, foreign, &side, 37)
						} else {
							got = feedADD(t, c, feed, foreign, &side)
						}
						if lateness > 0 {
							_, ms, err := c.Watermark(items[len(items)-1].Time + lateness + 1)
							if err != nil {
								t.Fatal(err)
							}
							got = append(got, ms...)
						}
						st, err := c.StatsJSON()
						if err != nil {
							t.Fatal(err)
						}
						return got, st
					}
					want, wantStats := run("add", false)
					got, gotStats := run("batch", true)
					if len(want) == 0 {
						t.Fatal("vacuous grid cell: no matches")
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("BATCH reported %d matches, per-item ADD %d — outputs differ", len(got), len(want))
					}
					if gotStats != wantStats {
						t.Fatalf("counters differ:\nADD   %+v\nBATCH %+v", wantStats, gotStats)
					}
				})
			}
		}
	}
}

// TestBatchIDs: a batch's items get consecutive IDs from the first, and
// the stream numbering carries on across batches and single ADDs.
func TestBatchIDs(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	items := migStream(3, 10, false)
	if first, _, err := c.AddBatch(items[:4]); err != nil || first != 0 {
		t.Fatalf("first batch: first=%d err=%v", first, err)
	}
	if id, _, err := c.Add(items[4].Time, items[4].Vec); err != nil || id != 4 {
		t.Fatalf("add between batches: id=%d err=%v", id, err)
	}
	if first, _, err := c.AddBatch(items[5:]); err != nil || first != 5 {
		t.Fatalf("second batch: first=%d err=%v", first, err)
	}
	if first, ms, err := c.AddBatch(nil); err != nil || first != 0 || ms != nil {
		t.Fatalf("empty batch: first=%d ms=%v err=%v", first, ms, err)
	}
}

// TestBatchBusyAtomic: a batch submitted to a full queue is refused
// whole with one BUSY, and no item of it is ingested; the same holds for
// an exhausted entry budget.
func TestBatchBusyAtomic(t *testing.T) {
	gate := &gateJoiner{entered: make(chan struct{}), gate: make(chan struct{})}
	s := startServer(t, Config{
		NewSessionJoiner: func(name string, opts SessionOptions, c *metrics.Counters) (core.Joiner, error) {
			j, err := core.NewSTRFull(kindFor(opts.Index), apss.Params{Theta: opts.Theta, Lambda: opts.Lambda},
				streaming.Options{Counters: c})
			gate.Joiner = j
			return gate, err
		},
	})
	v := vec.MustNew([]uint32{1}, []float64{1})
	c1, c2, c3 := dialT(t, s), dialT(t, s), dialT(t, s)
	if err := c1.Session("slow", "queue=1"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Client{c2, c3} {
		if err := c.Session("slow"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(10 * time.Second)
	res1, res2 := make(chan error, 1), make(chan error, 1)
	go func() { _, _, err := c1.Add(1, v); res1 <- err }()
	select {
	case <-gate.entered:
	case <-deadline:
		t.Fatal("pipeline never reached the joiner")
	}
	go func() { _, _, err := c2.Add(2, v); res2 <- err }()
	se, _ := s.lookupSession("slow")
	for len(se.reqs) == 0 {
		select {
		case <-deadline:
			t.Fatal("second item never reached the queue")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	batch := []stream.Item{{Time: 3, Vec: v}, {Time: 4, Vec: v}, {Time: 5, Vec: v}}
	if _, _, err := c3.AddBatch(batch); !errors.Is(err, ErrBusy) {
		t.Fatalf("batch on a full queue: err=%v, want ErrBusy", err)
	}
	close(gate.gate)
	for _, ch := range []chan error{res1, res2} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	st, err := c3.StatsJSON()
	if err != nil || st.Items != 2 {
		t.Fatalf("items = %d err=%v, want 2: the refused batch ingested something", st.Items, err)
	}
	if busy := se.busy.Load(); busy != 1 {
		t.Fatalf("busy count = %d, want 1 per refused batch", busy)
	}
	// The refusal was backpressure: the same batch lands on retry.
	if first, _, err := c3.AddBatch(batch); err != nil || first != 2 {
		t.Fatalf("retry: first=%d err=%v", first, err)
	}

	// Entry budget: one BUSY for the whole batch, nothing ingested.
	b := startServer(t, Config{EntryBudget: 1})
	c := dialT(t, b)
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Size(); err != nil { // refresh the occupancy sample
		t.Fatal(err)
	}
	if _, _, err := c.AddBatch(batch); !errors.Is(err, ErrBusy) {
		t.Fatalf("batch over the entry budget: err=%v, want ErrBusy", err)
	}
	if st, err := c.StatsJSON(); err != nil || st.Items != 1 {
		t.Fatalf("items = %d err=%v, want 1", st.Items, err)
	}
}

// TestBatchMovedAtomic: on a migrated session a batch answers one MOVED
// and ingests nothing; re-sent to the peer, it continues the stream.
func TestBatchMovedAtomic(t *testing.T) {
	a, b := startServer(t, Config{}), startServer(t, Config{})
	ca := dialT(t, a)
	if err := ca.Session("m", "theta=0.6"); err != nil {
		t.Fatal(err)
	}
	items := migStream(9, 20, false)
	if _, _, err := ca.AddBatch(items[:10]); err != nil {
		t.Fatal(err)
	}
	if err := ca.Migrate(b.addr); err != nil {
		t.Fatal(err)
	}
	var moved *MovedError
	if _, _, err := ca.AddBatch(items[10:]); !errors.As(err, &moved) || moved.Addr != b.addr {
		t.Fatalf("batch after migration: err=%v, want *MovedError{%s}", err, b.addr)
	}
	cb := dialT(t, b)
	if err := cb.Session("m"); err != nil {
		t.Fatal(err)
	}
	if first, _, err := cb.AddBatch(items[10:]); err != nil || first != 10 {
		t.Fatalf("re-sent batch: first=%d err=%v", first, err)
	}
	if st, err := cb.StatsJSON(); err != nil || st.Items != 20 {
		t.Fatalf("items = %d err=%v, want 20", st.Items, err)
	}
}

// TestBatchStopsMidway: an item the pipeline rejects stops the batch
// there. The prefix stays ingested — with exactly the matches and
// counters sequential ADDs of it leave — the reply counts it, and the
// connection keeps serving.
func TestBatchStopsMidway(t *testing.T) {
	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	at := func(ts ...float64) []stream.Item {
		out := make([]stream.Item, len(ts))
		for i, x := range ts {
			out[i] = stream.Item{Time: x, Vec: v}
		}
		return out
	}
	t.Run("out-of-order", func(t *testing.T) {
		s := startServer(t, Config{})
		ref, c := dialT(t, s), dialT(t, s)
		for _, cl := range []*Client{ref, c} {
			name := "ref"
			if cl == c {
				name = "batch"
			}
			if err := cl.Session(name, "theta=0.7"); err != nil {
				t.Fatal(err)
			}
		}
		side := apss.SideA
		want := feedADD(t, ref, at(1, 2, 3), false, &side)
		_, got, err := c.AddBatch(at(1, 2, 3, 2.5, 4))
		var be *BatchError
		if !errors.As(err, &be) || be.Ingested != 3 || !strings.Contains(be.Message, "out of order") {
			t.Fatalf("err = %v, want *BatchError{Ingested: 3, out of order}", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix matches = %v, want %v", got, want)
		}
		wantStats, _ := ref.StatsJSON()
		gotStats, err := c.StatsJSON()
		if err != nil || gotStats != wantStats {
			t.Fatalf("counters = %+v err=%v, want %+v", gotStats, err, wantStats)
		}
		if id, _, err := c.Add(4, v); err != nil || id != 3 {
			t.Fatalf("add after a stopped batch: id=%d err=%v, want id 3", id, err)
		}
	})
	t.Run("late", func(t *testing.T) {
		s := startServer(t, Config{})
		c := dialT(t, s)
		if err := c.Session("late", "theta=0.7", "lateness=1"); err != nil {
			t.Fatal(err)
		}
		// 3.5 is behind the watermark 6 − 1 once 6 was seen.
		_, _, err := c.AddBatch(at(5, 6, 3.5, 7))
		var be *BatchError
		if !errors.As(err, &be) || be.Ingested != 2 || !strings.Contains(be.Message, "watermark") {
			t.Fatalf("err = %v, want *BatchError{Ingested: 2, behind watermark}", err)
		}
		if _, _, err := c.Watermark(100); err != nil {
			t.Fatal(err)
		}
		st, err := c.StatsJSON()
		if err != nil || st.Items != 2 || st.LateDrops != 1 {
			t.Fatalf("items=%d late=%d err=%v, want 2 and 1", st.Items, st.LateDrops, err)
		}
	})
}

// rawConn dials s for hand-written protocol lines.
func rawConn(t *testing.T, s testServer) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn, bufio.NewReader(conn)
}

// TestBatchParseErrorRefusesWhole: a bad line anywhere refuses the whole
// frame before the pipeline sees it; the frame is still consumed, so the
// connection stays line-aligned. PUT lines ride in batches too.
func TestBatchParseErrorRefusesWhole(t *testing.T) {
	s := startServer(t, Config{})
	conn, r := rawConn(t, s)
	read := func() string {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(line)
	}
	for _, frame := range []string{
		"BATCH 3\nADD 0 1:1\nADD notatime 1:1\nADD 2 1:1\n",
		"BATCH 2\nADD 0 1:1\nWM 5\n",
		"BATCH 2\nADD 0 1:1\nPUT 9 B 1 1:1\n", // side B on a self-join session
	} {
		fmt.Fprint(conn, frame)
		if resp := read(); !strings.HasPrefix(resp, "ERR BATCH 0 line 2: ") {
			t.Fatalf("%q: reply %q, want ERR BATCH 0 line 2", frame, resp)
		}
	}
	fmt.Fprint(conn, "BATCH 3\nPUT 7 A 0 1:1\nADD 1 1:1\nADDNOW 1:1\nSTATS JSON\n")
	matches := 0
	resp := read()
	for ; strings.HasPrefix(resp, "MATCH "); resp = read() {
		matches++
	}
	if resp != "BATCHED 3 7" || matches != 3 {
		t.Fatalf("mixed batch: %d matches then %q, want 3 then BATCHED 3 7", matches, resp)
	}
	if resp := read(); !strings.Contains(resp, `"items":3,`) {
		t.Fatalf("stats after refused batches: %q, want 3 items", resp)
	}
}

// stillServes checks that s answers a fresh connection.
func stillServes(t *testing.T, s testServer) {
	t.Helper()
	c := dialT(t, s)
	if err := c.Ping(); err != nil {
		t.Fatalf("second connection: %v", err)
	}
	if _, _, err := c.Add(0, vec.MustNew([]uint32{1}, []float64{1})); err != nil {
		t.Fatalf("second connection: %v", err)
	}
}

// expectTooLarge reads the typed refusal and then the hang-up.
func expectTooLarge(t *testing.T, r *bufio.Reader) {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR too large: ") {
		t.Fatalf("reply %q err=%v, want ERR too large", line, err)
	}
	if rest, err := r.ReadString('\n'); err == nil {
		t.Fatalf("connection still open after the refusal: read %q", rest)
	}
}

// TestOversizedLine: a 2 MiB line is answered with a typed ERR and the
// connection closed, without the server buffering the line; the daemon
// keeps serving other connections.
func TestOversizedLine(t *testing.T) {
	s := startServer(t, Config{})
	conn, r := rawConn(t, s)
	go func() {
		line := "ADD 0 " + strings.Repeat("1:1 ", 2<<20/4) + "\n"
		conn.Write([]byte(line)) // fails once the server hangs up
	}()
	expectTooLarge(t, r)
	stillServes(t, s)
}

// TestAdoptFramingLoss: an ADOPT whose header or counters line cannot
// be read is refused and the connection closed, since the rest of the
// transfer is still on the wire and must not run as commands.
func TestAdoptFramingLoss(t *testing.T) {
	s := startServer(t, Config{})
	conn, r := rawConn(t, s)
	go func() {
		fmt.Fprintf(conn, "ADOPT x 0 0 0 10\n%s\n", strings.Repeat("{", 2<<20))
	}()
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR ADOPT: reading counters line: too large") {
		t.Fatalf("ADOPT reply %q err=%v", line, err)
	}
	if rest, err := r.ReadString('\n'); err == nil {
		t.Fatalf("connection still open after the refusal: read %q", rest)
	}
	conn2, r2 := rawConn(t, s)
	fmt.Fprint(conn2, "ADOPT x\n{}\nPING\n")
	if line, err := r2.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR ADOPT needs") {
		t.Fatalf("ADOPT reply %q err=%v", line, err)
	}
	if rest, err := r2.ReadString('\n'); err == nil {
		t.Fatalf("transfer lines ran as commands: read %q", rest)
	}
	stillServes(t, s)
}

// TestOversizedBatchHeader: a BATCH count past MaxBatchItems is refused
// from the header alone, before any item line is read.
func TestOversizedBatchHeader(t *testing.T) {
	s := startServer(t, Config{})
	conn, r := rawConn(t, s)
	fmt.Fprint(conn, "BATCH 1000000000\n")
	expectTooLarge(t, r)
	stillServes(t, s)

	// A frame under the item cap but past the byte cap is refused too.
	conn2, r2 := rawConn(t, s)
	go func() {
		line := "ADD 0 " + strings.Repeat("1:1 ", (MaxLineBytes-16)/4) + "\n"
		w := bufio.NewWriter(conn2)
		fmt.Fprintf(w, "BATCH %d\n", MaxBatchItems)
		for i := 0; i < MaxBatchBytes/len(line)+1; i++ {
			w.WriteString(line)
		}
		w.Flush()
	}()
	expectTooLarge(t, r2)
	stillServes(t, s)

	// A header that is not a count loses the framing as well.
	conn3, r3 := rawConn(t, s)
	fmt.Fprint(conn3, "BATCH many\n")
	if line, err := r3.ReadString('\n'); err != nil || !strings.HasPrefix(line, "ERR bad BATCH count") {
		t.Fatalf("reply %q err=%v", line, err)
	}
	if _, err := r3.ReadString('\n'); err == nil {
		t.Fatal("connection still open after a bad BATCH count")
	}
}

// TestAddBatchRefusesOverCaps: the client refuses a batch over the caps
// without sending it, so the connection stays usable.
func TestAddBatchRefusesOverCaps(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	many := make([]stream.Item, MaxBatchItems+1)
	for i := range many {
		many[i] = stream.Item{Time: float64(i), Vec: v}
	}
	if _, _, err := c.AddBatch(many); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-count batch: err=%v, want ErrTooLarge", err)
	}
	dims := make([]uint32, MaxLineBytes/8)
	vals := make([]float64, len(dims))
	for i := range dims {
		dims[i], vals[i] = uint32(i), 0.123456789
	}
	wide := vec.Vector{Dims: dims, Vals: vals}
	if _, _, err := c.AddBatch([]stream.Item{{Vec: wide}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-long item: err=%v, want ErrTooLarge", err)
	}
	if first, _, err := c.AddBatch(many[:MaxBatchItems]); err != nil || first != 0 {
		t.Fatalf("batch at the cap: first=%d err=%v", first, err)
	}
}

// fmtCoords is the fmt-based coordinate rendering the append encoder
// replaced: the wire format it must reproduce byte for byte.
func fmtCoords(v vec.Vector) string {
	var sb strings.Builder
	for i := range v.Dims {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%g", v.Dims[i], v.Vals[i])
	}
	return sb.String()
}

// TestAppendEncoderMatchesFmt: the append-based request encoder emits
// exactly the bytes of the old %d:%g / %g formatting, over random vectors
// with subnormal, extreme, negative and signed-zero values.
func TestAppendEncoderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	special := []float64{
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
		math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 123456789012345678, 0.1, 1, -0.0,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	value := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return special[rng.Intn(len(special))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return math.Float64frombits(rng.Uint64() & 0x000fffffffffffff) // subnormal
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	var buf []byte
	for n := 0; n < 2000; n++ {
		nnz := rng.Intn(6)
		v := vec.Vector{Dims: make([]uint32, nnz), Vals: make([]float64, nnz)}
		for i := range v.Dims {
			v.Dims[i], v.Vals[i] = rng.Uint32(), value()
		}
		t0 := value()
		buf = appendCoords(buf[:0], v)
		if got, want := string(buf), fmtCoords(v); got != want {
			t.Fatalf("coords %q, fmt gives %q", got, want)
		}
		buf = appendAdd(buf[:0], t0, v)
		if got, want := string(buf), fmt.Sprintf("ADD %g %s\n", t0, fmtCoords(v)); got != want {
			t.Fatalf("ADD line %q, fmt gives %q", got, want)
		}
	}
}
