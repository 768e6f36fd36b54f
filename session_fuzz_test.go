package sssj

import (
	"errors"
	"net"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/server"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// FuzzSessionProtocol drives a live multi-tenant server with random
// interleavings of SESSION / ADD / BATCH / STATS / SESSIONS / SIZE
// across several connections. The fuzz bytes decode to (connection, op, arg)
// triples; the oracle is per-session accounting: whatever the
// interleaving, the server must never panic, never desynchronize a
// connection, and every session's final item count must equal exactly
// the adds accepted on it — no item may leak into, or be counted by,
// another session.
func FuzzSessionProtocol(f *testing.F) {
	// Seeds: create/attach/add on one session; two sessions interleaved
	// across connections; a lateness session plus listing and stats ops.
	f.Add([]byte("\x00\x00\x04\x00\x01\x10\x00\x01\x20\x00\x02\x00"))
	f.Add([]byte("\x00\x00\x00\x01\x00\x05\x00\x01\x08\x01\x01\x09\x02\x01\x07\x00\x03\x00\x01\x02\x00"))
	f.Add([]byte("\x01\x00\x03\x01\x01\x40\x01\x04\x00\x02\x00\x03\x02\x01\x41\x01\x02\x00\x00\x03\x00"))
	// BATCH mixed with ADD on one connection; a batch at the cap and one
	// past it (refused by the client, nothing ingested).
	f.Add([]byte("\x00\x00\x05\x00\x05\x07\x00\x01\x10\x00\x05\x11\x01\x05\x03\x00\x02\x00"))
	f.Add([]byte("\x00\x05\xff\x00\x01\x08\x00\x05\xf8\x00\x05\x02\x00\x02\x00"))
	item := func(arg byte) vec.Vector {
		return vec.MustNew(
			[]uint32{uint32(arg % 8), uint32(arg%8) + 1},
			[]float64{1, 0.1 + float64(arg)/255},
		).Normalize()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		srv, err := server.New(server.Config{Params: apss.Params{Theta: 0.7, Lambda: 0.1}})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		addr := ln.Addr().String()

		const nconn = 3
		var conns [nconn]*server.Client
		dial := func(i int) *server.Client {
			if conns[i] == nil {
				c, err := server.Dial(addr)
				if err != nil {
					t.Fatal(err)
				}
				conns[i] = c
			}
			return conns[i]
		}
		defer func() {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
		}()

		names := []string{"s0", "s1", "s2", "s3"}
		attached := [nconn]string{server.DefaultSession, server.DefaultSession, server.DefaultSession}
		clock := map[string]float64{} // per-session monotonic test clock
		accepted := map[string]int{}  // adds acknowledged per session
		lateness := map[string]bool{} // sessions created with a reorder stage

		for i := 0; i+2 < len(data); i += 3 {
			ci := int(data[i]) % nconn
			op := data[i+1] % 6
			arg := data[i+2]
			c := dial(ci)
			switch op {
			case 0: // create a session (or attach, if the name is taken)
				name := names[int(arg)%len(names)]
				theta := []string{"0.5", "0.7", "0.9"}[int(arg>>2)%3]
				opts := []string{"theta=" + theta, "lambda=0.1"}
				late := arg&1 == 1
				if late {
					opts = append(opts, "lateness=2")
				}
				if err := c.Session(name, opts...); err != nil {
					// Name taken: attaching must always work.
					if err := c.Session(name); err != nil {
						t.Fatalf("attach %q: %v", name, err)
					}
				} else {
					lateness[name] = late
				}
				attached[ci] = name
			case 1: // add an item on the attached session
				name := attached[ci]
				clock[name] += float64(arg) / 64
				if _, _, err := c.Add(clock[name], item(arg)); err != nil {
					// The test clock never goes backwards, so every add is
					// admissible — an error here is a protocol break.
					t.Fatalf("add on %q at t=%v: %v", name, clock[name], err)
				}
				accepted[name]++
			case 2: // counters must stay decodable mid-interleaving
				if _, err := c.StatsJSON(); err != nil {
					t.Fatalf("stats on %q: %v", attached[ci], err)
				}
			case 3: // listing never desynchronizes the connection
				if _, err := c.Sessions(); err != nil {
					t.Fatalf("sessions: %v", err)
				}
			case 4: // occupancy probe (also refreshes the size sample)
				if _, err := c.Size(); err != nil {
					t.Fatalf("size on %q: %v", attached[ci], err)
				}
			case 5: // a BATCH on the attached session: small, at the cap, or past it
				name := attached[ci]
				n := 1 + int(arg)%24
				switch {
				case arg == 255: // the costliest op by far (~0.1 s), so the rarest
					n = server.MaxBatchItems
				case arg >= 248:
					n = server.MaxBatchItems + 1
				}
				items := make([]stream.Item, n)
				t0 := clock[name]
				for k := range items {
					t0 += float64((int(arg)+k)%16) / 64
					items[k] = stream.Item{Time: t0, Vec: item(arg + byte(k))}
				}
				_, _, err := c.AddBatch(items)
				if n > server.MaxBatchItems {
					// Refused before sending: nothing ingested, and the
					// connection stays in step.
					if !errors.Is(err, server.ErrTooLarge) {
						t.Fatalf("over-cap batch on %q: err=%v, want ErrTooLarge", name, err)
					}
					break
				}
				if err != nil {
					t.Fatalf("batch of %d on %q: %v", n, name, err)
				}
				clock[name] = t0
				accepted[name] += n
			}
		}

		// Oracle: per-session item counts match the accepted adds exactly.
		check, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer check.Close()
		for name, want := range accepted {
			if err := check.Session(name); err != nil {
				t.Fatalf("final attach %q: %v", name, err)
			}
			if lateness[name] {
				// Release anything still buffered in the reorder stage.
				if _, _, err := check.Watermark(clock[name] + 1e6); err != nil {
					t.Fatalf("drain %q: %v", name, err)
				}
			}
			st, err := check.StatsJSON()
			if err != nil {
				t.Fatalf("final stats %q: %v", name, err)
			}
			if st.Items != int64(want) {
				t.Fatalf("session %q counted %d items, accepted %d — cross-session contamination",
					name, st.Items, want)
			}
		}
	})
}
