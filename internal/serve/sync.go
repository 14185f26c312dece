package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"rex"
	"rex/internal/httpjson"
	rexsync "rex/internal/sync"
)

// Anti-entropy endpoints: the serving side of replica catch-up. A
// lagging peer (or the router, on its behalf) uses
//
//	GET  /admin/snapshot        the newest binary checkpoint, content-
//	                            addressed by fingerprint (ETag) — an
//	                            already-current peer revalidates with
//	                            If-None-Match and transfers nothing, an
//	                            interrupted transfer resumes with Range
//	GET  /admin/wal?from=<gen>  the CRC-framed WAL tail above <gen>
//	                            (410 Gone below the checkpoint horizon)
//	POST /admin/sync?peer=<url> kick this replica's sync engine
//
// The read endpoints stay available while the server drains: a peer
// mid-transfer finishes against the draining instance instead of
// restarting against another.

// syncState holds the server's optional sync wiring, installed by
// SetSync before serving starts.
type syncState struct {
	engine      atomic.Pointer[rexsync.Engine]
	refuseStale atomic.Bool
}

// SetSync installs the replica's sync engine behind POST /admin/sync
// and the /stats and /metrics sync sections. With refuseStale set the
// query endpoints answer 503 while a sync is running, for deployments
// that prefer unavailability over stale-but-honest answers.
func (s *Server) SetSync(e *rexsync.Engine, refuseStale bool) {
	s.sync.engine.Store(e)
	s.sync.refuseStale.Store(refuseStale)
}

// syncEngine returns the installed engine, nil if none.
func (s *Server) syncEngine() *rexsync.Engine { return s.sync.engine.Load() }

// syncStatsOf snapshots e's counters for the /stats sync section, nil
// when no engine is installed.
func syncStatsOf(e *rexsync.Engine) *rexsync.Stats {
	if e == nil {
		return nil
	}
	st := e.Stats()
	return &st
}

// refuseWhileSyncing sheds a query with 503 when the server is
// configured to refuse stale answers and a catch-up is running.
func (s *Server) refuseWhileSyncing(w http.ResponseWriter) bool {
	e := s.syncEngine()
	if e == nil || !s.sync.refuseStale.Load() || !e.Syncing() {
		return true
	}
	w.Header().Set("Retry-After", "1")
	httpjson.WriteError(w, http.StatusServiceUnavailable, "replica is catching up; stale answers are disabled")
	return false
}

// hijackCut answers with a 200 that declares the full Content-Length
// but delivers only partial, then flushes and closes the connection —
// the "peer died mid-transfer" chaos shape. Hijacking matters: a
// handler panic resets the connection (RST), which can destroy bytes
// already queued for the client, while the explicit flush + close (FIN)
// guarantees everything written arrives before the short read.
func hijackCut(w http.ResponseWriter, headers [][2]string, total int64, partial io.Reader) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		panic(http.ErrAbortHandler)
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	defer conn.Close()
	fmt.Fprintf(bufrw, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n", total)
	for _, kv := range headers {
		fmt.Fprintf(bufrw, "%s: %s\r\n", kv[0], kv[1])
	}
	bufrw.WriteString("\r\n") //nolint:errcheck // injected cut
	io.Copy(bufrw, partial)   //nolint:errcheck // injected cut
	bufrw.Flush()             //nolint:errcheck // injected cut
}

// handleSnapshot serves the newest checkpoint. http.ServeContent
// supplies the conditional (If-None-Match) and range (resume) handling
// against the fingerprint ETag; the X-Rex-Generation header tells the
// peer which generation it is installing.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.authorizeAdmin(w, r) {
		return
	}
	if err := s.failpoint(FailSnapshot); err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h, err := s.store.SyncCheckpoint()
	if err != nil {
		httpjson.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	defer h.Close() //nolint:errcheck // read-only handle
	if h.Fingerprint != "" {
		w.Header().Set("ETag", `"`+h.Fingerprint+`"`)
		w.Header().Set("X-Rex-Fingerprint", h.Fingerprint)
	}
	w.Header().Set("X-Rex-Generation", strconv.FormatUint(h.Generation, 10))
	if s.failpoint(FailSnapshotCut) != nil {
		// Chaos: deliver half the checkpoint, then die. The client sees
		// a short body under the full declared length and must resume
		// with a range request (the ETag proves the content is the same).
		hdrs := [][2]string{
			{"Content-Type", "application/octet-stream"},
			{"X-Rex-Generation", strconv.FormatUint(h.Generation, 10)},
		}
		if h.Fingerprint != "" {
			hdrs = append(hdrs, [2]string{"ETag", `"` + h.Fingerprint + `"`})
		}
		hijackCut(w, hdrs, h.Size, io.LimitReader(h.Reader, h.Size/2))
		return
	}
	http.ServeContent(w, r, "checkpoint.rexkb", time.Time{}, h.Reader)
}

// handleWALStream serves the CRC-framed WAL tail above ?from=<gen>. A
// peer below the checkpoint GC horizon gets 410 Gone and must transfer
// the full snapshot first.
func (s *Server) handleWALStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	if !s.authorizeAdmin(w, r) {
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, "from must be a generation number")
		return
	}
	if err := s.failpoint(FailWALStream); err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The tail streams straight from the WAL file — the handler never
	// holds a full copy, so N concurrently rejoining peers cost N open
	// descriptors, not N tail-sized buffers (this endpoint deliberately
	// sits outside the admission limiter).
	tail, size, records, err := s.store.WALTailReader(from)
	if errors.Is(err, rex.ErrBelowWALHorizon) {
		httpjson.WriteError(w, http.StatusGone, fmt.Sprintf("generation %d is below the checkpoint horizon; fetch /admin/snapshot", from))
		return
	}
	if err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer tail.Close() //nolint:errcheck // read-only descriptor
	if s.failpoint(FailWALStreamCut) != nil && size > walCutMargin {
		// Chaos: tear the stream mid-record. The declared length is the
		// full tail, so the client's frame scanner hits a torn frame and
		// keeps only the records that arrived whole.
		hijackCut(w, [][2]string{
			{"Content-Type", "application/octet-stream"},
			{"X-Rex-Wal-From", strconv.FormatUint(from, 10)},
			{"X-Rex-Wal-Records", strconv.Itoa(records)},
		}, size, io.LimitReader(tail, size-walCutMargin))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Rex-Wal-From", strconv.FormatUint(from, 10))
	w.Header().Set("X-Rex-Wal-Records", strconv.Itoa(records))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	io.Copy(w, tail) //nolint:errcheck // streaming response
}

// walCutMargin is how many trailing bytes the FailWALStreamCut seam
// withholds — smaller than any frame, so the cut always lands inside
// the final record.
const walCutMargin = 7

// syncTriggerResponse answers POST /admin/sync.
type syncTriggerResponse struct {
	Status string `json:"status"`
	Peer   string `json:"peer,omitempty"`
}

// handleSyncTrigger answers POST /admin/sync?peer=<url>: kick the
// replica's sync engine (asynchronously — the router fires and
// forgets). The optional peer is the caller's view of the freshest
// source; without it the engine probes its configured peers.
func (s *Server) handleSyncTrigger(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.refuseDuringDrain(w) || !s.authorizeAdmin(w, r) {
		return
	}
	e := s.syncEngine()
	if e == nil {
		httpjson.WriteError(w, http.StatusConflict, "no sync engine configured; start with -peers")
		return
	}
	peer := r.URL.Query().Get("peer")
	if e.Syncing() {
		httpjson.Write(w, http.StatusOK, syncTriggerResponse{Status: "already syncing", Peer: peer})
		return
	}
	go func() {
		if _, err := e.Sync(context.Background(), peer); err != nil &&
			!errors.Is(err, rexsync.ErrSyncInProgress) {
			s.logSyncFailure(err)
		}
	}()
	httpjson.Write(w, http.StatusAccepted, syncTriggerResponse{Status: "sync started", Peer: peer})
}

// logSyncFailure counts a failed admin-triggered sync; the engine's own
// Logf already narrates the details.
func (s *Server) logSyncFailure(error) { s.syncKickFailures.Add(1) }

// registerSyncMetrics adds the rex_sync_* families. All closures are
// nil-safe: they read zeroes until SetSync installs an engine.
func registerSyncMetrics(reg *serverRegistry, s *Server) {
	stats := func() rexsync.Stats {
		if e := s.syncEngine(); e != nil {
			return e.Stats()
		}
		return rexsync.Stats{}
	}
	reg.Gauge("rex_syncing",
		"1 while a replica catch-up (anti-entropy sync) is running.").With().
		SetFunc(func() float64 {
			if stats().Syncing {
				return 1
			}
			return 0
		})
	reg.Counter("rex_sync_attempts_total",
		"Replica catch-up runs started.").With().
		SetFunc(func() float64 { return float64(stats().Attempts) })
	sc := reg.Counter("rex_sync_total",
		"Completed replica catch-up runs by outcome.", "outcome")
	sc.With("ok").SetFunc(func() float64 { return float64(stats().Successes) })
	sc.With("error").SetFunc(func() float64 { return float64(stats().Failures) })
	reg.Counter("rex_sync_wal_records_total",
		"WAL records applied from peers during catch-up.").With().
		SetFunc(func() float64 { return float64(stats().WALRecords) })
	sb := reg.Counter("rex_sync_bytes_total",
		"Bytes transferred during catch-up by kind (wal, snapshot).", "kind")
	sb.With("wal").SetFunc(func() float64 { return float64(stats().WALBytes) })
	sb.With("snapshot").SetFunc(func() float64 { return float64(stats().SnapshotBytes) })
	reg.Counter("rex_sync_snapshots_total",
		"Full checkpoint transfers installed during catch-up.").With().
		SetFunc(func() float64 { return float64(stats().Snapshots) })
	reg.Counter("rex_sync_resumes_total",
		"Snapshot transfers resumed from a partial spool file.").With().
		SetFunc(func() float64 { return float64(stats().Resumes) })
	reg.Counter("rex_sync_fingerprint_mismatches_total",
		"Fingerprint verification failures during catch-up.").With().
		SetFunc(func() float64 { return float64(stats().Mismatches) })
	reg.Counter("rex_sync_trigger_failures_total",
		"Admin-triggered (POST /admin/sync) catch-ups that failed.").With().
		SetFunc(func() float64 { return float64(s.syncKickFailures.Load()) })
}
