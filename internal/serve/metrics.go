package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"rex"
	"rex/internal/httpjson"
	"rex/internal/obs"
)

// serverMetrics owns the Prometheus registry for one server. Counters
// fold from completed per-query traces — the per-snapshot CacheStats
// counters reset on every hot swap, which a Prometheus counter must
// never do, so the server accumulates its own monotonic totals and
// exposes the snapshot-scoped values only as gauges sampled at scrape
// time.
type serverMetrics struct {
	reg *serverRegistry

	httpRequests  *obs.Family // counter{endpoint,code}
	httpDuration  *obs.Family // histogram{endpoint}
	stageDuration *obs.Family // histogram{stage}
	queries       *obs.Family // counter{outcome}: ok, error, timeout
	truncated     *obs.Family // counter{by}
	swapDuration  *obs.Family // histogram

	cacheHits   *obs.Series
	cacheMisses *obs.Series

	inflight atomic.Int64
}

// serverRegistry is the obs.Registry alias kept separate so handler
// code reads s.metrics.reg without importing obs everywhere.
type serverRegistry = obs.Registry

// newServerMetrics registers every metric family. Gauge families
// sample the store and slow log at scrape time, so a scrape is a few
// atomic loads plus the brief shard locks of the result cache's count.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	b := obs.Build()
	reg.Gauge("rex_build_info",
		"Build identification; value is always 1.",
		"go_version", "revision").With(b.GoVersion, b.Revision).Set(1)
	reg.Gauge("rex_uptime_seconds",
		"Seconds since the server started.").With().
		SetFunc(func() float64 { return time.Since(s.started).Seconds() })

	m.httpRequests = reg.Counter("rex_http_requests_total",
		"HTTP requests by endpoint and status code.", "endpoint", "code")
	m.httpDuration = reg.Histogram("rex_http_request_duration_seconds",
		"HTTP request latency by endpoint.", obs.LatencyBuckets(), "endpoint")
	reg.Gauge("rex_queries_inflight",
		"Explain queries currently executing (including batch pairs).").With().
		SetFunc(func() float64 { return float64(m.inflight.Load()) })

	m.stageDuration = reg.Histogram("rex_query_stage_duration_seconds",
		"Per-query pipeline stage wall time (match nests inside measure).",
		obs.LatencyBuckets(), "stage")
	for _, st := range obs.Stages() {
		m.stageDuration.With(st.String())
	}
	m.queries = reg.Counter("rex_queries_total",
		"Completed queries by outcome (ok, error, timeout).", "outcome")
	for _, outcome := range []string{"ok", "error", "timeout"} {
		m.queries.With(outcome)
	}
	m.truncated = reg.Counter("rex_query_truncated_total",
		"Budget-truncated queries by attribution (stage:cause).", "by")

	m.cacheHits = reg.Counter("rex_result_cache_hits_total",
		"Queries served from the result cache.").With()
	m.cacheMisses = reg.Counter("rex_result_cache_misses_total",
		"Queries that missed the result cache.").With()

	reg.Gauge("rex_result_cache_entries",
		"Result-cache entries of the active snapshot.").With().
		SetFunc(func() float64 { return float64(s.store.Current().Explainer.CacheStats().Entries) })
	reg.Gauge("rex_result_cache_capacity",
		"Configured result-cache capacity.").With().
		SetFunc(func() float64 { return float64(s.store.Current().Explainer.CacheStats().Capacity) })

	reg.Gauge("rex_overlay_depth",
		"Overlay depth of the active snapshot (0 = fully compacted CSR).").With().
		SetFunc(func() float64 { return float64(s.store.LiveStats().OverlayDepth) })
	reg.Counter("rex_store_swaps_total",
		"Published snapshot swaps since startup.").With().
		SetFunc(func() float64 { return float64(s.store.Swaps()) })
	reg.Counter("rex_store_compactions_total",
		"Overlay chains folded into fresh CSR arrays.").With().
		SetFunc(func() float64 { return float64(s.store.LiveStats().Compactions) })
	reg.Counter("rex_deltas_applied_total",
		"Successfully applied /admin/delta requests.").With().
		SetFunc(func() float64 { return float64(s.deltas.Load()) })
	reg.Counter("rex_reloads_total",
		"Successful /admin/reload requests.").With().
		SetFunc(func() float64 { return float64(s.reloads.Load()) })
	m.swapDuration = reg.Histogram("rex_swap_duration_seconds",
		"End-to-end snapshot swap latency (parse, build, publish).",
		obs.LatencyBuckets())
	m.swapDuration.With()

	reg.Gauge("rex_kb_nodes", "Entities in the active snapshot.").With().
		SetFunc(func() float64 { return float64(s.store.Current().KB.Stats().Nodes) })
	reg.Gauge("rex_kb_edges", "Relationships in the active snapshot.").With().
		SetFunc(func() float64 { return float64(s.store.Current().KB.Stats().Edges) })

	reg.Counter("rex_slow_queries_total",
		"Queries recorded by the slow-query log.").With().
		SetFunc(func() float64 { return float64(s.slow.Total()) })

	// Overload and lifecycle: shed counts per admission class, panics
	// contained by the recovery middleware, and the drain flag probes
	// can alert on.
	shed := reg.Counter("rex_requests_shed_total",
		"Requests shed by admission control (429) by endpoint class.", "class")
	shed.With("query").SetFunc(func() float64 { return float64(s.queryLimit.shedCount()) })
	shed.With("admin").SetFunc(func() float64 { return float64(s.adminLimit.shedCount()) })
	reg.Counter("rex_handler_panics_total",
		"Handler panics contained by the recovery middleware.").With().
		SetFunc(func() float64 { return float64(s.panics.Load()) })
	reg.Gauge("rex_draining",
		"1 while the server is draining ahead of shutdown, else 0.").With().
		SetFunc(func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})

	// Durability: WAL and checkpoint state of the store's journal. All
	// zero when the server runs without -data-dir.
	reg.Gauge("rex_durability_enabled",
		"1 when the store runs with a crash-safety journal (-data-dir).").With().
		SetFunc(func() float64 {
			if s.store.DurabilityStats().Enabled {
				return 1
			}
			return 0
		})
	reg.Counter("rex_wal_appends_total",
		"Delta batches appended to the write-ahead log.").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().Appends) })
	reg.Counter("rex_wal_appended_bytes_total",
		"Bytes appended to the write-ahead log (framing included).").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().AppendedBytes) })
	reg.Counter("rex_wal_fsyncs_total",
		"WAL fsync calls.").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().Fsyncs) })
	reg.Gauge("rex_wal_size_bytes",
		"Current write-ahead log size.").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().WALSize) })
	reg.Counter("rex_checkpoints_total",
		"Checkpoints completed since the journal was opened.").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().Checkpoints) })
	reg.Counter("rex_checkpoint_failures_total",
		"Checkpoints that failed after their delta was already durable.").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().CheckpointFailures) })
	reg.Gauge("rex_checkpoint_generation",
		"Generation of the newest on-disk checkpoint (0 = none).").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().CheckpointGen) })
	reg.Gauge("rex_wal_replayed_records",
		"WAL records replayed at the last boot.").With().
		SetFunc(func() float64 { return float64(s.store.DurabilityStats().Replayed) })
	reg.Gauge("rex_wal_torn_tail",
		"1 when the last recovery dropped a torn or corrupt WAL tail.").With().
		SetFunc(func() float64 {
			if s.store.DurabilityStats().TornTail {
				return 1
			}
			return 0
		})

	// Anti-entropy: replica catch-up counters (zero until SetSync
	// installs an engine).
	registerSyncMetrics(reg, s)

	return m
}

// observeTrace folds one completed query's trace into the stage
// histograms and cache/truncation counters.
func (m *serverMetrics) observeTrace(rep *rex.QueryTrace) {
	if rep == nil {
		return
	}
	for _, st := range rep.Stages {
		m.stageDuration.With(st.Stage).Observe(st.DurationMS / 1e3)
	}
	if rep.CacheHit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
	if rep.TruncatedBy != "" {
		m.truncated.With(rep.TruncatedBy).Inc()
	}
}

// instrument wraps a handler with the in-flight gauge around the
// shared per-endpoint request counter and latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	counted := httpjson.Instrument(endpoint, s.metrics.httpRequests, s.metrics.httpDuration, h)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inflight.Add(1)
		counted(w, r)
		s.metrics.inflight.Add(-1)
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WritePrometheus(w) //nolint:errcheck // streaming response
}

// slowResponse is the /admin/slow answer: the retained slow-query
// entries, newest first.
type slowResponse struct {
	ThresholdMS float64         `json:"threshold_ms"`
	Total       uint64          `json:"total"`
	Entries     []obs.SlowEntry `json:"entries"`
}

// handleSlow serves the slow-query ring buffer. Behind the admin token
// because entries expose query content (entity pairs).
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	if !s.authorizeAdmin(w, r) {
		return
	}
	httpjson.Write(w, http.StatusOK, slowResponse{
		ThresholdMS: float64(s.slow.Threshold()) / 1e6,
		Total:       s.slow.Total(),
		Entries:     s.slow.Entries(),
	})
}

// queryStats derives /stats' query counters from rex_queries_total, so
// /stats and /metrics count from one source: every completed query is
// an explain, and a timeout is also an error.
func (m *serverMetrics) queryStats() queryStats {
	n := func(outcome string) uint64 { return uint64(m.queries.With(outcome).Value()) }
	ok, errs, timeouts := n("ok"), n("error"), n("timeout")
	return queryStats{Explains: ok + errs + timeouts, Errors: errs + timeouts, Timeouts: timeouts}
}

// isTimeout classifies a query's error for the outcome label: a
// deadline or a cancellation.
func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// noteQuery feeds one completed query (an /explain request or one batch
// pair) into the trace-fold metrics and the slow-query log.
func (s *Server) noteQuery(endpoint, reqID string, p rex.Pair, bud budgetRequest, res *rex.Result, err error, elapsed time.Duration, generation uint64) {
	var rep *rex.QueryTrace
	truncated := false
	if res != nil {
		rep = res.Trace
		truncated = res.Truncated
	}
	s.metrics.observeTrace(rep)
	switch {
	case err == nil:
		s.metrics.queries.With("ok").Inc()
	case isTimeout(err):
		s.metrics.queries.With("timeout").Inc()
	default:
		s.metrics.queries.With("error").Inc()
	}
	entry := obs.SlowEntry{
		RequestID:  reqID,
		Endpoint:   endpoint,
		Start:      p.Start,
		End:        p.End,
		BudgetMS:   bud.BudgetMS,
		Generation: generation,
		Truncated:  truncated,
		Trace:      rep,
	}
	if err != nil {
		entry.Error = err.Error()
	}
	s.slow.Note(elapsed, entry)
}
