// Command serversmoke is the process-level multi-tenant smoke test
// behind `make server-smoke`: it boots one sssjd daemon with the
// Prometheus endpoint enabled, creates three sessions with different
// thresholds and join modes, streams a deterministic workload through
// each in BATCH frames, scrapes /metrics, live-migrates one session to a
// second daemon mid-stream (the first frame after the cut answers MOVED
// and is re-sent to the new daemon), and requires every session's match
// set to equal — bit for bit — what a dedicated single-tenant daemon
// reports for the same stream fed one ADD at a time. A last leg runs the
// sssj command in client mode (-server … -session) over self-join,
// foreign and out-of-order input and requires its output to be
// byte-identical to a local sssj run. This is the deployment-shape check
// the in-process tests cannot give: separate address spaces, real TCP,
// real process lifecycle, a real HTTP scrape.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sssj/internal/apss"
	"sssj/internal/server"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// tenant is one session in the smoke matrix: a name, its creation
// options, whether its stream is two-sided, and the flags a dedicated
// single-tenant reference daemon needs to run the same join.
type tenant struct {
	name    string
	opts    []string
	foreign bool
	refArgs []string
	seed    int64
}

var tenants = []tenant{
	{
		name:    "inv-low",
		opts:    []string{"theta=0.6", "lambda=0.05", "index=INV"},
		refArgs: []string{"-theta", "0.6", "-lambda", "0.05", "-index", "INV"},
		seed:    11,
	},
	{
		name:    "l2-high",
		opts:    []string{"theta=0.75", "lambda=0.05", "index=L2"},
		refArgs: []string{"-theta", "0.75", "-lambda", "0.05", "-index", "L2"},
		seed:    12,
	},
	{
		name:    "fk",
		opts:    []string{"theta=0.6", "lambda=0.05", "index=L2", "join=foreign"},
		foreign: true,
		refArgs: []string{"-theta", "0.6", "-lambda", "0.05", "-index", "L2", "-join", "foreign"},
		seed:    13,
	},
}

// migrateTenant is the session handed to the second daemon mid-stream.
const migrateTenant = "l2-high"

// frame is the BATCH size tenants stream in; the single-tenant
// references stream one ADD per item instead.
const frame = 16

func main() {
	sssjd := flag.String("sssjd", "bin/sssjd", "path to the sssjd binary")
	sssj := flag.String("sssj", "bin/sssj", "path to the sssj binary (client-mode leg)")
	n := flag.Int("n", 200, "items per tenant stream")
	flag.Parse()
	if err := runSmoke(*sssjd, *sssj, *n); err != nil {
		fmt.Fprintf(os.Stderr, "server-smoke: %v\n", err)
		os.Exit(1)
	}
}

// proc is a spawned daemon plus the addresses it bound.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
}

// start launches a daemon on 127.0.0.1:0 and scans its stderr for the
// "listening on <addr>" line every daemon logs once bound, plus the
// "metrics on <addr>" line when -metrics is among the args.
func start(bin string, args ...string) (*proc, error) {
	wantMetrics := false
	for _, a := range args {
		if a == "-metrics" {
			wantMetrics = true
		}
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	metCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			for prefix, ch := range map[string]chan string{
				"listening on ": addrCh,
				"metrics on ":   metCh,
			} {
				if i := strings.Index(line, prefix); i >= 0 {
					rest := line[i+len(prefix):]
					if j := strings.IndexByte(rest, ' '); j >= 0 {
						rest = rest[:j]
					}
					select {
					case ch <- rest:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	p := &proc{cmd: cmd}
	deadline := time.After(10 * time.Second)
	select {
	case p.addr = <-addrCh:
	case <-deadline:
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("%s did not report a listen address", bin)
	}
	if wantMetrics {
		select {
		case p.metrics = <-metCh:
		case <-deadline:
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("%s did not report a metrics address", bin)
		}
	}
	return p, nil
}

// stop SIGTERMs the daemon and waits for a clean exit.
func (p *proc) stop() error {
	if p == nil || p.cmd.Process == nil {
		return nil
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not exit on SIGTERM")
	}
}

// genItems derives a deterministic workload: clustered draws from a
// small vocabulary so real matches occur, strictly increasing times.
func genItems(seed int64, n int) []stream.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]stream.Item, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		nnz := 1 + rng.Intn(4)
		dims := map[uint32]float64{}
		for len(dims) < nnz {
			dims[uint32(rng.Intn(20))] = 0.1 + rng.Float64()
		}
		var ds []uint32
		var vs []float64
		for d := uint32(0); d < 20; d++ {
			if v, ok := dims[d]; ok {
				ds = append(ds, d)
				vs = append(vs, v)
			}
		}
		t += rng.Float64()
		items = append(items, stream.Item{ID: uint64(i), Time: t, Vec: vec.MustNew(ds, vs).Normalize()})
	}
	return items
}

func dial(addr string) (*server.Client, error) {
	return server.Dialer{DialTimeout: 2 * time.Second, IOTimeout: 30 * time.Second, Retries: 5}.Dial(addr)
}

// feed streams items[from:to] on an already-attached connection in
// BATCH frames of up to size items (size 1: one ADD per item) and
// returns the reported matches. Under the foreign join, odd positions go
// to stream B, and a frame ends wherever the side switches; side is the
// connection's current side, carried across calls so a resumed feed
// re-establishes it after reconnecting.
func feed(c *server.Client, items []stream.Item, from, to int, foreign bool, side *apss.Side, size int) ([]apss.Match, error) {
	sideOf := func(i int) apss.Side {
		if foreign && i%2 == 1 {
			return apss.SideB
		}
		return apss.SideA
	}
	var all []apss.Match
	for i := from; i < to; {
		if want := sideOf(i); foreign && want != *side {
			if err := c.Side(want); err != nil {
				return nil, err
			}
			*side = want
		}
		j := i + 1
		for j < to && j-i < size && sideOf(j) == *side {
			j++
		}
		var ms []apss.Match
		var err error
		if size == 1 {
			_, ms, err = c.Add(items[i].Time, items[i].Vec)
		} else {
			_, ms, err = c.AddBatch(items[i:j])
		}
		if err != nil {
			return nil, fmt.Errorf("items %d..%d: %w", i, j-1, err)
		}
		all = append(all, ms...)
		i = j
	}
	return all, nil
}

// scrape fetches the Prometheus endpoint and checks that every tenant
// session is reporting.
func scrape(metricsAddr string, halfway map[string]int) error {
	resp, err := http.Get("http://" + metricsAddr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics returned %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("/metrics Content-Type = %q, want the Prometheus text format", ct)
	}
	text := string(body)
	for name, items := range halfway {
		up := fmt.Sprintf(`sssj_session_up{session=%q} 1`, name)
		if !strings.Contains(text, up) {
			return fmt.Errorf("scrape is missing %s", up)
		}
		counted := fmt.Sprintf(`sssj_items_total{session=%q} %d`, name, items)
		if !strings.Contains(text, counted) {
			return fmt.Errorf("scrape is missing %s", counted)
		}
	}
	return nil
}

// runSmoke is the whole scenario: one multi-tenant daemon + one
// migration target + one single-tenant reference daemon per session,
// then the client-mode leg against the multi-tenant daemon.
func runSmoke(sssjd, sssj string, n int) error {
	var procs []*proc
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()

	// The shared daemon hosts every tenant; daemon B adopts the
	// migrated session mid-stream.
	shared, err := start(sssjd, "-metrics", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shared daemon: %w", err)
	}
	procs = append(procs, shared)
	target, err := start(sssjd)
	if err != nil {
		return fmt.Errorf("migration target: %w", err)
	}
	procs = append(procs, target)

	streams := map[string][]stream.Item{}
	conns := map[string]*server.Client{}
	sides := map[string]*apss.Side{}
	got := map[string][]apss.Match{}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, tn := range tenants {
		streams[tn.name] = genItems(tn.seed, n)
		c, err := dial(shared.addr)
		if err != nil {
			return err
		}
		conns[tn.name] = c
		if err := c.Session(tn.name, tn.opts...); err != nil {
			return fmt.Errorf("SESSION %s: %w", tn.name, err)
		}
		side := apss.SideA
		sides[tn.name] = &side
	}

	// First half of every stream goes to the shared daemon.
	half := n / 2
	halfway := map[string]int{}
	for _, tn := range tenants {
		ms, err := feed(conns[tn.name], streams[tn.name], 0, half, tn.foreign, sides[tn.name], frame)
		if err != nil {
			return fmt.Errorf("%s first half: %w", tn.name, err)
		}
		got[tn.name] = ms
		halfway[tn.name] = half
	}

	// Scrape with every session half-fed: the endpoint must report each
	// tenant by name with its exact item count.
	if err := scrape(shared.metrics, halfway); err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	fmt.Printf("server-smoke: /metrics OK (%d sessions reporting at %d items each)\n", len(tenants), half)

	// Live-migrate one session, then finish every stream — the migrated
	// tenant on daemon B, the rest where they started.
	if err := conns[migrateTenant].Migrate(target.addr); err != nil {
		return fmt.Errorf("MIGRATE %s: %w", migrateTenant, err)
	}
	// The next frame on the old connection is refused whole with MOVED;
	// the redial below re-sends it to the new daemon, and the item count
	// checked after the second half proves none of it landed twice.
	var moved *server.MovedError
	if _, err := feed(conns[migrateTenant], streams[migrateTenant], half, min(half+frame, n), false, sides[migrateTenant], frame); !errors.As(err, &moved) || moved.Addr != target.addr {
		return fmt.Errorf("frame after MIGRATE: err=%v, want MOVED %s", err, target.addr)
	}
	conns[migrateTenant].Close()
	mc, err := dial(moved.Addr)
	if err != nil {
		return err
	}
	conns[migrateTenant] = mc
	if err := mc.Session(migrateTenant); err != nil {
		return fmt.Errorf("attach after migration: %w", err)
	}
	fmt.Printf("server-smoke: migrated %q to %s at item %d\n", migrateTenant, target.addr, half)

	for _, tn := range tenants {
		foreign := tn.foreign
		// A fresh connection starts on side A; force re-sync after the
		// migration reconnect.
		if tn.name == migrateTenant {
			side := apss.SideA
			sides[tn.name] = &side
		}
		ms, err := feed(conns[tn.name], streams[tn.name], half, n, foreign, sides[tn.name], frame)
		if err != nil {
			return fmt.Errorf("%s second half: %w", tn.name, err)
		}
		got[tn.name] = append(got[tn.name], ms...)
		st, err := conns[tn.name].StatsJSON()
		if err != nil {
			return err
		}
		if st.Items != int64(n) {
			return fmt.Errorf("%s counted %d items, fed %d", tn.name, st.Items, n)
		}
	}

	// Reference: one dedicated single-tenant daemon per session, fed the
	// identical stream in one uninterrupted run.
	for _, tn := range tenants {
		ref, err := start(sssjd, tn.refArgs...)
		if err != nil {
			return fmt.Errorf("reference daemon for %s: %w", tn.name, err)
		}
		procs = append(procs, ref)
		rc, err := dial(ref.addr)
		if err != nil {
			return err
		}
		side := apss.SideA
		want, err := feed(rc, streams[tn.name], 0, n, tn.foreign, &side, 1)
		rc.Close()
		if err != nil {
			return fmt.Errorf("%s reference stream: %w", tn.name, err)
		}
		if len(want) == 0 {
			return fmt.Errorf("%s reference run found no matches; smoke test vacuous", tn.name)
		}
		if !apss.EqualMatchSets(got[tn.name], want, 0) {
			return fmt.Errorf("%s: multi-tenant run reported %d matches, single-tenant %d — outputs differ",
				tn.name, len(got[tn.name]), len(want))
		}
		fmt.Printf("server-smoke: %s OK (%d matches ≡ single-tenant daemon, %d items)\n",
			tn.name, len(want), n)
	}

	for _, c := range conns {
		c.Close()
	}
	conns = map[string]*server.Client{}
	if err := clientLeg(sssj, shared.addr, n); err != nil {
		return fmt.Errorf("client mode: %w", err)
	}
	for _, p := range procs {
		if err := p.stop(); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	procs = nil
	return nil
}

// clientLeg runs the sssj command in client mode against the daemon at
// addr — each input into a fresh session — and requires its output to
// be byte-identical to a local sssj run over the same files, for a
// self-join, a foreign join and an out-of-order stream under -lateness.
func clientLeg(sssj, addr string, n int) error {
	dir, err := os.MkdirTemp("", "serversmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	write := func(name string, items []stream.Item) (string, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		if err := stream.WriteText(f, items); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
	items := genItems(21, n)
	var sideA, sideB []stream.Item
	for i, it := range items {
		if i%2 == 0 {
			sideA = append(sideA, it)
		} else {
			sideB = append(sideB, it)
		}
	}
	self, err := write("self.txt", items)
	if err != nil {
		return err
	}
	a, err := write("a.txt", sideA)
	if err != nil {
		return err
	}
	b, err := write("b.txt", sideB)
	if err != nil {
		return err
	}
	late, err := write("late.txt", stream.ShuffleWithin(items, 0.9, 3))
	if err != nil {
		return err
	}
	base := []string{"-theta", "0.6", "-lambda", "0.05"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"cli-self", []string{"-input", self}},
		{"cli-foreign", []string{"-join", "foreign", "-input", a, "-inputB", b}},
		{"cli-late", []string{"-lateness", "1", "-input", late}},
	} {
		args := append(append([]string(nil), base...), tc.args...)
		local, err := exec.Command(sssj, args...).Output()
		if err != nil {
			return fmt.Errorf("%s local run: %w", tc.name, err)
		}
		remote, err := exec.Command(sssj, append(args, "-server", addr, "-session", tc.name)...).Output()
		if err != nil {
			return fmt.Errorf("%s client run: %w", tc.name, err)
		}
		if len(local) == 0 {
			return fmt.Errorf("%s: local run found no matches; leg vacuous", tc.name)
		}
		if !bytes.Equal(local, remote) {
			return fmt.Errorf("%s: client-mode output (%d bytes) differs from the local run (%d bytes)",
				tc.name, len(remote), len(local))
		}
		fmt.Printf("server-smoke: %s OK (sssj -server output ≡ local run, %d lines)\n",
			tc.name, bytes.Count(local, []byte("\n")))
	}
	return nil
}
