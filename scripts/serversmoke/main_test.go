package main

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/server"
)

// TestRunSmokeEndToEnd builds the real sssjd and sssj binaries and runs
// the whole smoke scenario — 3 tenant sessions, the /metrics scrape, the
// mid-stream migration, and the client-mode leg — exactly as `make
// server-smoke` does, on a reduced stream.
func TestRunSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real daemon processes")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"sssjd", "sssj"} {
		build := exec.Command("go", "build", "-o", dir+"/"+cmd, "sssj/cmd/"+cmd)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	if err := runSmoke(dir+"/sssjd", dir+"/sssj", 80); err != nil {
		t.Fatal(err)
	}
}

// TestGenItems: the workload is deterministic, time-ordered, and
// normalized — the properties the parity comparison rests on.
func TestGenItems(t *testing.T) {
	a := genItems(7, 50)
	b := genItems(7, 50)
	if len(a) != 50 {
		t.Fatalf("generated %d items", len(a))
	}
	for i := range a {
		if a[i].Time != b[i].Time || !reflect.DeepEqual(a[i].Vec, b[i].Vec) {
			t.Fatalf("item %d not deterministic", i)
		}
		if !a[i].Vec.IsUnit(1e-9) {
			t.Fatalf("item %d not unit-normalized", i)
		}
		if i > 0 && a[i].Time <= a[i-1].Time {
			t.Fatalf("times not strictly increasing at %d", i)
		}
	}
}

// TestFeedAgainstLiveServer drives feed (sided and unsided, in frames and
// per item) against an in-process server, checking the carried side
// state across a resumed feed — the exact shape the migration path uses.
func TestFeedAgainstLiveServer(t *testing.T) {
	for _, foreign := range []bool{false, true} {
		srv, err := server.New(server.Config{
			Params:  apss.Params{Theta: 0.6, Lambda: 0.05},
			Foreign: foreign,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)

		items := genItems(7, 40)
		c, err := dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		side := apss.SideA
		first, err := feed(c, items, 0, 20, foreign, &side, 7)
		if err != nil {
			t.Fatal(err)
		}
		rest, err := feed(c, items, 20, 40, foreign, &side, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := append(first, rest...)

		// Reference: the same stream in one uninterrupted feed.
		srv2, err := server.New(server.Config{
			Params:  apss.Params{Theta: 0.6, Lambda: 0.05},
			Foreign: foreign,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln2, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv2.Serve(ln2)
		c2, err := dial(ln2.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		side2 := apss.SideA
		want, err := feed(c2, items, 0, 40, foreign, &side2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !apss.EqualMatchSets(got, want, 0) {
			t.Fatalf("foreign=%v: split feed %d matches, whole feed %d", foreign, len(got), len(want))
		}
		c.Close()
		c2.Close()
		srv.Close()
		srv2.Close()
	}
}

// TestScrape checks the /metrics assertions against a real handler fed
// through real sessions, and the failure modes against canned bodies.
func TestScrape(t *testing.T) {
	srv, err := server.New(server.Config{Params: apss.Params{Theta: 0.7, Lambda: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Session("tenant", "theta=0.7", "lambda=0.1"); err != nil {
		t.Fatal(err)
	}
	items := genItems(3, 5)
	side := apss.SideA
	if _, err := feed(c, items, 0, 5, false, &side, frame); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.MetricsHandler())
	defer hs.Close()
	host := strings.TrimPrefix(hs.URL, "http://")
	if err := scrape(host, map[string]int{"tenant": 5}); err != nil {
		t.Fatalf("scrape of a live handler: %v", err)
	}
	// Wrong item count must be detected.
	if err := scrape(host, map[string]int{"tenant": 99}); err == nil {
		t.Fatal("scrape accepted a wrong item count")
	}
	// Missing session must be detected.
	if err := scrape(host, map[string]int{"ghost": 0}); err == nil {
		t.Fatal("scrape accepted a missing session")
	}

	// A scrape without the Prometheus content type must be rejected.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `sssj_session_up{session="tenant"} 1`)
	}))
	defer plain.Close()
	if err := scrape(strings.TrimPrefix(plain.URL, "http://"), map[string]int{}); err == nil {
		t.Fatal("scrape accepted a non-Prometheus content type")
	}
}
