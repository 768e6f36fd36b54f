package server

import (
	"bytes"
	"net/http"

	"sssj/internal/metrics"
)

// counterFamilies maps Prometheus counter families to metrics.Counters
// fields. Every family is exposed per session (label session="name");
// the full counter set rides along so dashboards can derive rates for
// any of the paper's operation counts, not just the headline ones.
var counterFamilies = []struct {
	name, help string
	get        func(*metrics.Counters) int64
}{
	{"sssj_items_total", "Stream items processed.", func(c *metrics.Counters) int64 { return c.Items }},
	{"sssj_pairs_total", "Similar pairs reported.", func(c *metrics.Counters) int64 { return c.Pairs }},
	{"sssj_late_drops_total", "Items dropped behind the lateness watermark.", func(c *metrics.Counters) int64 { return c.LateDrops }},
	{"sssj_entries_traversed_total", "Posting entries scanned during candidate generation.", func(c *metrics.Counters) int64 { return c.EntriesTraversed }},
	{"sssj_candidates_total", "Vectors admitted to the accumulator.", func(c *metrics.Counters) int64 { return c.Candidates }},
	{"sssj_full_dots_total", "Exact residual dot products computed.", func(c *metrics.Counters) int64 { return c.FullDots }},
	{"sssj_indexed_entries_total", "Posting entries ever inserted.", func(c *metrics.Counters) int64 { return c.IndexedEntries }},
	{"sssj_expired_entries_total", "Posting entries removed by time filtering.", func(c *metrics.Counters) int64 { return c.ExpiredEntries }},
}

// MetricsHandler returns the Prometheus-format scrape handler for the
// server's sessions. It reads the snapshots the session pipelines
// publish — never the live joiners — so scraping is wait-free with
// respect to ingest: a session stalled behind a slow consumer serves
// its last published state instead of stalling the scrape with it.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		type snap struct {
			name  string
			s     sessionSnapshot
			depth int
			cap   int
			busy  int64
			moved bool
		}
		sessions := s.sessionList()
		snaps := make([]snap, 0, len(sessions))
		for _, se := range sessions {
			snaps = append(snaps, snap{
				name:  se.name,
				s:     se.snapshot(),
				depth: len(se.reqs),
				cap:   cap(se.reqs),
				busy:  se.busy.Load(),
				moved: se.movedAddr() != "",
			})
		}

		var buf bytes.Buffer
		p := metrics.NewPromWriter(&buf)

		for _, fam := range counterFamilies {
			p.Family(fam.name, "counter", fam.help)
			for i := range snaps {
				p.Sample(fam.name, label(snaps[i].name), float64(fam.get(&snaps[i].s.counters)))
			}
		}

		p.Family("sssj_busy_total", "counter", "Ingest requests (items or whole batches) refused with the typed BUSY backpressure reply.")
		for i := range snaps {
			p.Sample("sssj_busy_total", label(snaps[i].name), float64(snaps[i].busy))
		}

		p.Family("sssj_session_up", "gauge", "1 while the session serves here, 0 once migrated away.")
		for i := range snaps {
			up := 1.0
			if snaps[i].moved {
				up = 0
			}
			p.Sample("sssj_session_up", label(snaps[i].name), up)
		}

		p.Family("sssj_ingest_queue_depth", "gauge", "Requests waiting in the session ingest queue.")
		for i := range snaps {
			p.Sample("sssj_ingest_queue_depth", label(snaps[i].name), float64(snaps[i].depth))
		}
		p.Family("sssj_ingest_queue_capacity", "gauge", "Bound of the session ingest queue.")
		for i := range snaps {
			p.Sample("sssj_ingest_queue_capacity", label(snaps[i].name), float64(snaps[i].cap))
		}

		p.Family("sssj_index_posting_entries", "gauge", "Live posting entries in the session index (sampled).")
		for i := range snaps {
			p.Sample("sssj_index_posting_entries", label(snaps[i].name), float64(snaps[i].s.size.PostingEntries))
		}
		p.Family("sssj_index_residuals", "gauge", "Residual vectors stored in the session index (sampled).")
		for i := range snaps {
			p.Sample("sssj_index_residuals", label(snaps[i].name), float64(snaps[i].s.size.Residuals))
		}
		p.Family("sssj_index_lists", "gauge", "Non-empty posting lists in the session index (sampled).")
		for i := range snaps {
			p.Sample("sssj_index_lists", label(snaps[i].name), float64(snaps[i].s.size.Lists))
		}

		p.Family("sssj_arena_blocks_live", "gauge", "Arena posting blocks holding live entries (sampled).")
		for i := range snaps {
			if snaps[i].s.hasArena {
				p.Sample("sssj_arena_blocks_live", label(snaps[i].name),
					float64(snaps[i].s.arena.Blocks-snaps[i].s.arena.FreeBlocks))
			}
		}
		p.Family("sssj_arena_blocks_free", "gauge", "Arena posting blocks on the freelist (sampled).")
		for i := range snaps {
			if snaps[i].s.hasArena {
				p.Sample("sssj_arena_blocks_free", label(snaps[i].name), float64(snaps[i].s.arena.FreeBlocks))
			}
		}

		p.Family("sssj_session_engine", "gauge", "1 for the engine the self-tuning session currently runs (label engine).")
		for i := range snaps {
			if snaps[i].s.hasAdapt {
				p.Sample("sssj_session_engine",
					label(snaps[i].name)+`,engine="`+snaps[i].s.adapt.Kind.String()+`"`, 1)
			}
		}
		p.Family("sssj_session_reranks_total", "counter", "Dimension-order rebuilds performed by the self-tuning layer.")
		for i := range snaps {
			if snaps[i].s.hasAdapt {
				p.Sample("sssj_session_reranks_total", label(snaps[i].name), float64(snaps[i].s.adapt.Reranks))
			}
		}

		p.Family("sssj_ingest_latency_seconds", "histogram", "Per-item ingest latency through the session pipeline.")
		for i := range snaps {
			p.Histogram("sssj_ingest_latency_seconds", label(snaps[i].name), &snaps[i].s.hist)
		}

		if p.Err() != nil {
			http.Error(w, p.Err().Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
}

// label renders the per-session label set. Session names are restricted
// to [A-Za-z0-9._-] by validSessionName, so no escaping is needed.
func label(session string) string { return `session="` + session + `"` }
