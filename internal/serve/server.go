// Package serve is the HTTP serving layer of one REX replica: the
// query, admin, observability and lifecycle endpoints that cmd/rexserve
// exposes. It is a library so the replicated serving tier — the
// rexrouter front tier, the internal/cluster chaos tests and the
// benchmark module's serve_hot and tier_routed workloads — can boot
// real replicas in-process instead of re-implementing the wire contract.
package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rex"
	"rex/internal/httpjson"
	"rex/internal/obs"
	rexsync "rex/internal/sync"
)

// Server is the HTTP serving layer over one live rex.Store. All
// handlers are safe for concurrent use: every query handler pins the
// active snapshot once (a lock-free atomic load) and serves the whole
// request from that pinned (KB, Explainer, cache) version, so a delta
// swap mid-request can never mix generations. The admin endpoints
// mutate only through the store, which serialises writers internally.
type Server struct {
	store      *rex.Store
	kbPath     string        // source file for /admin/reload; "" when serving a built-in KB
	adminToken string        // bearer token required by /admin/*; "" leaves them open
	timeout    time.Duration // per-request deadline
	maxBatch   int           // largest accepted /batch pair count
	pprof      bool          // expose /debug/pprof/* (off by default)
	name       string        // instance name scoping this replica's failpoints
	started    time.Time

	explains atomic.Uint64 // completed /explain queries (incl. batch pairs)
	errors   atomic.Uint64 // queries that returned an error
	timeouts atomic.Uint64 // queries aborted by deadline or cancellation
	deltas   atomic.Uint64 // successfully applied /admin/delta requests
	reloads  atomic.Uint64 // successful /admin/reload requests
	panics   atomic.Uint64 // handler panics contained by the recovery middleware

	// draining flips /healthz to 503 ahead of a graceful shutdown so
	// load balancers stop routing before the listener closes.
	draining atomic.Bool

	// Admission control: per-class in-flight bounds (see lifecycle.go).
	// Configured by SetAdmission before serving starts; nil = unlimited.
	queryLimit *classLimiter
	adminLimit *classLimiter

	slow    *obs.SlowLog   // slow-query forensics ring, served at /admin/slow
	metrics *serverMetrics // Prometheus registry behind /metrics

	// sync is the optional anti-entropy wiring (see sync.go): the
	// engine behind POST /admin/sync plus the refuse-stale policy.
	sync             syncState
	syncKickFailures atomic.Uint64 // admin-triggered syncs that failed
}

// maxDeltaBytes bounds one streamed /admin/delta body. Deltas are
// line-oriented, so even modest limits admit hundreds of thousands of
// mutations; raise it here if an extraction pipeline batches bigger.
const maxDeltaBytes = 256 << 20

// Config parameterises one Server. The zero value serves a built-in KB
// with the default batch limit, no admin token, no pprof and no
// per-request deadline.
type Config struct {
	// KBPath is the source file for /admin/reload; "" disables reload.
	KBPath string
	// AdminToken gates /admin/* behind a bearer token; "" leaves them
	// open (only safe on a trusted listener).
	AdminToken string
	// Timeout is the per-request query deadline (0 = none).
	Timeout time.Duration
	// MaxBatch bounds one /batch pair count (<= 0 = 1024).
	MaxBatch int
	// Pprof exposes /debug/pprof/* when set.
	Pprof bool
	// Name scopes this replica's failpoint seams ("serve.<point>@<name>")
	// so multi-replica chaos tests can fault one instance at a time.
	// Empty uses the unscoped "serve.<point>" names.
	Name string
}

// New builds a Server over one live store. Admission control and the
// slow-query log start at their defaults; override with SetAdmission
// and SetSlowLog before the handler starts serving.
func New(store *rex.Store, cfg Config) *Server {
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 1024
	}
	s := &Server{
		store: store, kbPath: cfg.KBPath, adminToken: cfg.AdminToken,
		timeout: cfg.Timeout, maxBatch: maxBatch, pprof: cfg.Pprof,
		name: cfg.Name, started: time.Now(),
	}
	s.slow = obs.NewSlowLog(DefaultSlowThreshold, DefaultSlowRing, nil)
	q, a := AdmissionDefaults()
	s.SetAdmission(q, a, DefaultAdmissionWait)
	s.metrics = newServerMetrics(s)
	store.OnSwap(func(info rex.SwapInfo) {
		s.metrics.swapDuration.With().Observe(info.Elapsed.Seconds())
	})
	return s
}

// Default slow-query log configuration; main overrides both via
// -slow-threshold and -slow-log before serving starts.
const (
	DefaultSlowThreshold = 500 * time.Millisecond
	DefaultSlowRing      = 128
)

// SetSlowLog replaces the slow-query log. Call before the handler is
// serving — the /metrics closure reads the current s.slow at scrape
// time, so a replacement mid-traffic would race.
func (s *Server) SetSlowLog(threshold time.Duration, size int, w io.Writer) {
	s.slow = obs.NewSlowLog(threshold, size, w)
}

// authorizeAdmin gates the mutating admin endpoints: when the server
// was started with -admin-token, requests must carry it as a bearer
// token. Comparison is constant-time so the token cannot be guessed
// byte by byte. With no token configured the endpoints are open —
// suitable only when the listener itself is trusted (loopback, private
// network); the flag docs say so.
func (s *Server) authorizeAdmin(w http.ResponseWriter, r *http.Request) bool {
	if s.adminToken == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(s.adminToken)) != 1 {
		httpjson.WriteError(w, http.StatusUnauthorized, "missing or invalid admin token")
		return false
	}
	return true
}

// handler builds the route table. Query and admin endpoints run behind
// their class's admission limiter (shed with 429 + Retry-After when
// over the in-flight bound); the cheap introspection endpoints are
// never shed — an overloaded server must still answer its probes and
// scrapes. The whole mux sits behind the panic-recovery middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/explain", s.instrument("/explain", s.admit(s.queryLimit, s.handleExplain)))
	mux.HandleFunc("/batch", s.instrument("/batch", s.admit(s.queryLimit, s.handleBatch)))
	mux.HandleFunc("/stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/admin/delta", s.instrument("/admin/delta", s.admit(s.adminLimit, s.handleAdminDelta)))
	mux.HandleFunc("/admin/reload", s.instrument("/admin/reload", s.admit(s.adminLimit, s.handleAdminReload)))
	mux.HandleFunc("/admin/slow", s.instrument("/admin/slow", s.handleSlow))
	// Anti-entropy: peers stream the checkpoint and WAL tail from here
	// (available during drain — a mid-transfer peer finishes) and the
	// router kicks lagging replicas via /admin/sync. Not behind the
	// admin admission limiter: a catch-up transfer can be long-lived and
	// must not starve delta acks (or vice versa).
	mux.HandleFunc("/admin/snapshot", s.instrument("/admin/snapshot", s.handleSnapshot))
	mux.HandleFunc("/admin/wal", s.instrument("/admin/wal", s.handleWALStream))
	mux.HandleFunc("/admin/sync", s.instrument("/admin/sync", s.handleSyncTrigger))
	if s.pprof {
		// Runtime profiling for performance work, opt-in via -pprof.
		// Registered explicitly rather than through the package's
		// DefaultServeMux side effect, so the endpoints exist only when
		// asked for; see DESIGN.md for usage. The profiles expose
		// operational internals — enable only on a trusted listener.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.recoverPanics(s.withRequestID(mux))
}

// GenerationHeader is the response header carrying the generation of
// the snapshot that answered a 200 from /explain or /batch — the same
// number as the body's "generation", where the router can read it
// without reading the body.
const GenerationHeader = "X-Rex-Generation"

// explainBufs pools the buffers /explain and /batch answers are
// assembled in.
var explainBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledExplainBuf keeps one oversized answer from pinning its
// buffer in the pool for the life of the process.
const maxPooledExplainBuf = 1 << 20

// writeExplain is the one writer of a 200 /explain: the result (with
// res.Trace, when set) wrapped with the query's truncation flag, the
// generation and fingerprint of the snapshot that computed it — so
// clients and the swap-under-traffic tests can correlate answers with
// KB versions — and the elapsed time, sent with a Content-Length and
// GenerationHeader. The body is byte for byte what json.NewEncoder(w)
// writes for an object of "result", "truncated", "generation",
// "fingerprint" and "elapsed_ms" in that order
// (TestWriteExplainMatchesEncoder), but the result arrives already
// encoded (rex.Result.AppendJSON) and the four scalars are appended by
// hand, so a cache hit costs a copy and not an encoding.
func writeExplain(w http.ResponseWriter, res *rex.Result, generation uint64, fingerprint string, elapsed time.Duration) {
	buf := explainBufs.Get().(*[]byte)
	b, err := res.AppendJSON(append((*buf)[:0], `{"result":`...))
	if err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, "encoding result: "+err.Error())
		return
	}
	b = append(b, `,"truncated":`...)
	b = strconv.AppendBool(b, res.Truncated)
	writeAssembled(w, buf, b, generation, fingerprint, elapsed)
}

// writeBatch is the one writer of a 200 /batch: one entry per pair, in
// request order, each carrying either that pair's result — its cached
// encoding, as /explain sends it — or its error, in the envelope
// /explain has. The body is byte for byte what json.NewEncoder(w)
// writes for the same value (TestWriteBatchMatchesEncoder).
func writeBatch(w http.ResponseWriter, results []rex.BatchResult, generation uint64, fingerprint string, elapsed time.Duration) {
	buf := explainBufs.Get().(*[]byte)
	b := append((*buf)[:0], `{"results":[`...)
	for i, br := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"start":`...)
		b = appendJSONString(b, br.Pair.Start)
		b = append(b, `,"end":`...)
		b = appendJSONString(b, br.Pair.End)
		if br.Result != nil {
			var err error
			if b, err = br.Result.AppendJSON(append(b, `,"result":`...)); err != nil {
				httpjson.WriteError(w, http.StatusInternalServerError, "encoding result: "+err.Error())
				return
			}
			if br.Result.Truncated {
				b = append(b, `,"truncated":true`...)
			}
		}
		if br.Err != nil {
			b = appendJSONString(append(b, `,"error":`...), br.Err.Error())
		}
		b = append(b, '}')
	}
	b = append(b, ']')
	writeAssembled(w, buf, b, generation, fingerprint, elapsed)
}

// writeAssembled closes an answer body b with the generation,
// fingerprint and elapsed fields every 200 query answer ends with and
// sends it with its length and GenerationHeader, then returns buf, the
// pooled buffer b was built in, to the pool.
func writeAssembled(w http.ResponseWriter, buf *[]byte, b []byte, generation uint64, fingerprint string, elapsed time.Duration) {
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, generation, 10)
	b = append(b, `,"fingerprint":`...)
	b = appendJSONString(b, fingerprint)
	b = append(b, `,"elapsed_ms":`...)
	// Whole microseconds over 1000 are 0 or at least 0.001, and far below
	// 1e21: the range where encoding/json also prints 'f' with the
	// shortest digits.
	b = strconv.AppendFloat(b, float64(elapsed.Microseconds())/1000, 'f', -1, 64)
	b = append(b, "}\n"...)

	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	h.Set(GenerationHeader, strconv.FormatUint(generation, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(b) //nolint:errcheck // the response is already committed
	if cap(b) <= maxPooledExplainBuf {
		*buf = b
		explainBufs.Put(buf)
	}
}

// appendJSONString appends s as encoding/json quotes it. Fingerprints
// and entity names seldom need escaping; anything that does takes the
// encoder's own path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// budgetRequest carries the per-request work budget accepted by
// /explain (query parameters or JSON body fields) and /batch (top-level
// body fields, applied to every pair), and the sql flag. Zero bounds
// fall back to the server's default budget flags, as the facade
// resolves every rex.Request.
type budgetRequest struct {
	// BudgetMS bounds the query's wall-clock milliseconds; on expiry
	// the best-so-far explanations are returned with truncated=true.
	BudgetMS int64 `json:"budget_ms"`
	// BudgetExpansions bounds enumeration node expansions —
	// deterministic truncation, unlike the wall-clock budget.
	BudgetExpansions int `json:"budget_expansions"`
	// SQL asks for each explanation's distributional SQL (sql=1, or
	// "sql": true in a body); answers leave it out otherwise.
	SQL bool `json:"sql"`
}

// request is the query for pair p under this budget and sql flag.
func (b budgetRequest) request(p rex.Pair) rex.Request {
	return rex.Request{
		Pair: p,
		Budget: rex.Budget{
			MaxExpansions: b.BudgetExpansions,
			Timeout:       time.Duration(b.BudgetMS) * time.Millisecond,
		},
		SQL: b.SQL,
	}
}

// maxBudgetMS is the largest budget_ms whose time.Duration does not
// overflow.
const maxBudgetMS = int64(math.MaxInt64 / time.Millisecond)

// validate rejects nonsensical budgets so a client typo gets a 400, not
// an unbounded query: a negative value would silently mean
// "unbudgeted", and one past maxBudgetMS would wrap to a tiny or a
// negative timeout.
func (b budgetRequest) validate() error {
	if b.BudgetMS < 0 {
		return fmt.Errorf("budget_ms must be non-negative, got %d", b.BudgetMS)
	}
	if b.BudgetMS > maxBudgetMS {
		return fmt.Errorf("budget_ms must be at most %d, got %d", maxBudgetMS, b.BudgetMS)
	}
	if b.BudgetExpansions < 0 {
		return fmt.Errorf("budget_expansions must be non-negative, got %d", b.BudgetExpansions)
	}
	return nil
}

// parseBudgetQuery reads the budget knobs and the sql flag from URL
// query parameters.
func parseBudgetQuery(q url.Values) (budgetRequest, error) {
	b := budgetRequest{SQL: q.Get("sql") == "1"}
	if v := q.Get("budget_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return b, fmt.Errorf("invalid budget_ms %q", v)
		}
		b.BudgetMS = ms
	}
	if v := q.Get("budget_expansions"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return b, fmt.Errorf("invalid budget_expansions %q", v)
		}
		b.BudgetExpansions = n
	}
	return b, b.validate()
}

// explainRequest is the POST /explain input.
type explainRequest struct {
	rex.Pair
	budgetRequest
	// Trace includes the per-stage trace in the result.
	Trace bool `json:"trace"`
}

// decodeExplainBody reads a POST /explain body. A refused body comes
// back with the status to answer it with.
func decodeExplainBody(r io.Reader) (explainRequest, int, error) {
	var req explainRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return req, decodeStatus(err), fmt.Errorf("invalid JSON body: %w", err)
	}
	if err := req.validate(); err != nil {
		return req, http.StatusBadRequest, err
	}
	return req, http.StatusOK, nil
}

// batchRequest is the /batch input. The budget fields and the sql flag
// apply to every pair of the batch.
type batchRequest struct {
	Pairs []rex.Pair `json:"pairs"`
	budgetRequest
	// Trace includes each pair's per-stage trace in its result.
	Trace bool `json:"trace"`
}

// decodeBatchBody reads a /batch body of at most maxBatch pairs. A
// refused body comes back with the status to answer it with.
func decodeBatchBody(r io.Reader, maxBatch int) (batchRequest, int, error) {
	var req batchRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return req, decodeStatus(err), fmt.Errorf("invalid JSON body: %w", err)
	}
	if len(req.Pairs) == 0 {
		return req, http.StatusBadRequest, errors.New("pairs must be non-empty")
	}
	if len(req.Pairs) > maxBatch {
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d exceeds limit %d", len(req.Pairs), maxBatch)
	}
	if err := req.validate(); err != nil {
		return req, http.StatusBadRequest, err
	}
	return req, http.StatusOK, nil
}

// swapResponse reports a completed snapshot swap from the admin
// endpoints.
type swapResponse struct {
	Generation   uint64 `json:"generation"`
	Fingerprint  string `json:"fingerprint"`
	Nodes        int    `json:"nodes"`
	Edges        int    `json:"edges"`
	Labels       int    `json:"labels"`
	NodesAdded   int    `json:"nodes_added,omitempty"`
	LabelsAdded  int    `json:"labels_added,omitempty"`
	EdgesAdded   int    `json:"edges_added,omitempty"`
	EdgesRemoved int    `json:"edges_removed,omitempty"`
	TypesSet     int    `json:"types_set,omitempty"`
	// Overlay/Compacted/OverlayDepth describe how the swap was built:
	// as an O(delta) overlay, whether it was then folded into fresh CSR
	// arrays (its depth is 0), and how many deltas its base arrays carry
	// stacked.
	Overlay      bool `json:"overlay,omitempty"`
	Compacted    bool `json:"compacted,omitempty"`
	OverlayDepth int  `json:"overlay_depth,omitempty"`
}

func swapResponseOf(info rex.SwapInfo) swapResponse {
	return swapResponse{
		Generation:   info.Generation,
		Fingerprint:  info.Fingerprint,
		Nodes:        info.KB.Nodes,
		Edges:        info.KB.Edges,
		Labels:       info.KB.Labels,
		NodesAdded:   info.NodesAdded,
		LabelsAdded:  info.LabelsAdded,
		EdgesAdded:   info.EdgesAdded,
		EdgesRemoved: info.EdgesRemoved,
		TypesSet:     info.TypesSet,
		Overlay:      info.Overlay,
		Compacted:    info.Compacted,
		OverlayDepth: info.OverlayDepth,
	}
}

// decodeStatus distinguishes an oversized request body (413) from
// malformed JSON (400).
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// errStatus maps a query error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, rex.ErrUnknownEntity):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// note updates the per-query counters.
func (s *Server) note(err error) {
	s.explains.Add(1)
	if err == nil {
		return
	}
	s.errors.Add(1)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.timeouts.Add(1)
	}
}

// requestCtx derives the per-request deadline context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// handleExplain answers GET /explain?start=a&end=b and the equivalent
// POST with a JSON {"start","end"} body. Both forms accept the
// per-request budget knobs budget_ms and budget_expansions (requests
// without them run under the server's default budget flags) and the
// trace and sql flags.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		var err error
		if req.budgetRequest, err = parseBudgetQuery(q); err != nil {
			httpjson.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		req.Start, req.End, req.Trace = q.Get("start"), q.Get("end"), q.Get("trace") == "1"
	case http.MethodPost:
		var status int
		var err error
		if req, status, err = decodeExplainBody(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
			httpjson.WriteError(w, status, err.Error())
			return
		}
	default:
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	p, bud := req.Pair, req.budgetRequest
	if p.Start == "" || p.End == "" {
		httpjson.WriteError(w, http.StatusBadRequest, "start and end are required")
		return
	}
	if !s.refuseWhileSyncing(w) {
		return
	}
	// Chaos seam: an injected error is a broken replica (500), an
	// injected stall is a lagging one — both before any engine work, so
	// faults never corrupt state.
	if err := s.failpoint(FailRespond); err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	reqID := RequestIDFrom(r.Context())
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// Every query runs traced — the trace is O(stages) atomics per
	// query and feeds the stage histograms and the slow-query log.
	// The trace=1 flag only controls whether the report reaches the
	// response.
	ctx = rex.WithTrace(ctx)
	snap := s.store.Current() // pin one KB version for the whole request
	t0 := time.Now()
	res, err := snap.Explainer.Query(ctx, bud.request(p))
	s.note(err)
	if res != nil && res.Trace != nil {
		res.Trace.RequestID = reqID // the trace is a private per-query report
	}
	s.noteQuery("/explain", reqID, p, bud, res, err, time.Since(t0), snap.Generation)
	if err != nil {
		httpjson.WriteError(w, errStatus(err), err.Error())
		return
	}
	if !req.Trace {
		// tracedResult hands each caller a private shallow copy, so
		// clearing the report cannot corrupt cached results.
		res.Trace = nil
	}
	writeExplain(w, res, snap.Generation, snap.Fingerprint, time.Since(t0))
}

// handleBatch answers POST /batch with {"pairs":[{"start","end"},...]},
// fanning the pairs out over the explainer's worker pool with per-pair
// error isolation. All pairs run on the same pinned snapshot.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// Bound the body before decoding: the pair-count limit cannot
	// protect memory once an unbounded payload has been parsed. Entity
	// names are short, so 1 KiB per allowed pair is generous.
	body := http.MaxBytesReader(w, r.Body, 1<<20+int64(s.maxBatch)*1024)
	req, status, err := decodeBatchBody(body, s.maxBatch)
	if err != nil {
		httpjson.WriteError(w, status, err.Error())
		return
	}
	if !s.refuseWhileSyncing(w) {
		return
	}
	if err := s.failpoint(FailRespond); err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	reqID := RequestIDFrom(r.Context())
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	snap := s.store.Current()
	t0 := time.Now()
	// Traced gives every pair its own trace (stage histograms, slow
	// log); the request's trace flag decides whether reports reach the
	// response.
	bud := req.budgetRequest
	reqs := make([]rex.Request, len(req.Pairs))
	for i, p := range req.Pairs {
		reqs[i] = bud.request(p)
	}
	results := snap.Explainer.BatchExplain(ctx, reqs, rex.BatchOptions{Traced: true})
	for _, br := range results {
		s.note(br.Err)
		// Per-pair wall time comes from the trace; the request-level
		// elapsed would blame every pair for the whole batch.
		var pairElapsed time.Duration
		if br.Result != nil && br.Result.Trace != nil {
			br.Result.Trace.RequestID = reqID
			pairElapsed = time.Duration(br.Result.Trace.TotalMS * float64(time.Millisecond))
		}
		s.noteQuery("/batch", reqID, br.Pair, bud, br.Result, br.Err, pairElapsed, snap.Generation)
		if br.Result != nil && !req.Trace {
			// Traced results are private shallow copies, so stripping
			// the report cannot touch cached entries.
			br.Result.Trace = nil
		}
	}
	writeBatch(w, results, snap.Generation, snap.Fingerprint, time.Since(t0))
}

// handleAdminDelta answers POST /admin/delta: the body is a streamed
// mutation log in the delta wire format (node/label/edge records plus
// settype/deledge). On success the store has atomically swapped to the
// new generation and the response describes it; a delta of pure no-ops
// publishes nothing and reports the unchanged generation. On any error
// the active snapshot is unchanged (422 for parse/apply failures).
func (s *Server) handleAdminDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.refuseDuringDrain(w) || !s.authorizeAdmin(w, r) {
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxDeltaBytes)
	info, err := s.store.Apply(body)
	if err != nil {
		status := http.StatusUnprocessableEntity
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpjson.WriteError(w, status, err.Error())
		return
	}
	s.deltas.Add(1)
	httpjson.Write(w, http.StatusOK, swapResponseOf(info))
}

// handleAdminReload answers POST /admin/reload: re-read the knowledge
// base from the file the server was started with and swap it in
// wholesale — the recovery path when the delta stream and the
// authoritative file have diverged.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if !s.refuseDuringDrain(w) || !s.authorizeAdmin(w, r) {
		return
	}
	if s.kbPath == "" {
		httpjson.WriteError(w, http.StatusConflict, "server is serving a built-in knowledge base; start with -kb to enable reload")
		return
	}
	info, err := s.store.ReloadFrom(s.kbPath)
	if err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.reloads.Add(1)
	httpjson.Write(w, http.StatusOK, swapResponseOf(info))
}

// refuseDuringDrain sheds a mutating admin request while the server is
// draining. In-flight queries finishing is the drain contract; a new
// mutation, by contrast, would race Store.Close — the shutdown sequence
// closes the journal as soon as http.Server.Shutdown returns, and an
// Apply/ReloadFrom admitted after the drain flag flips could still be
// writing the WAL at that point. 503 tells the router/operator to send
// the mutation to a replica that is staying up.
func (s *Server) refuseDuringDrain(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return true
	}
	httpjson.WriteError(w, http.StatusServiceUnavailable, "server is draining; mutations refused")
	return false
}

// statsResponse is the /stats snapshot.
type statsResponse struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Version       versionInfo    `json:"version"`
	KB            rex.Stats      `json:"kb"`
	Cache         rex.CacheStats `json:"cache"`
	Queries       queryStats     `json:"queries"`
	Live          liveStats      `json:"live"`
	// Sync is the replica catch-up section, present when the server was
	// started with peers (-peers).
	Sync *rexsync.Stats `json:"sync,omitempty"`
}

// versionInfo identifies the active KB snapshot and the swap history.
type versionInfo struct {
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	Swaps       uint64 `json:"swaps"`
	Deltas      uint64 `json:"deltas_applied"`
	Reloads     uint64 `json:"reloads"`
}

type queryStats struct {
	Explains uint64 `json:"explains"`
	Errors   uint64 `json:"errors"`
	Timeouts uint64 `json:"timeouts"`
}

// liveStats is the write-path section of /stats: overlay state of the
// active snapshot plus cumulative compactions.
type liveStats struct {
	OverlayDepth int    `json:"overlay_depth"`
	Compactions  uint64 `json:"compactions"`
}

func liveStatsOf(ls rex.LiveStats) liveStats {
	return liveStats{OverlayDepth: ls.OverlayDepth, Compactions: ls.Compactions}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	httpjson.Write(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Version: versionInfo{
			Generation:  snap.Generation,
			Fingerprint: snap.Fingerprint,
			Swaps:       s.store.Swaps(),
			Deltas:      s.deltas.Load(),
			Reloads:     s.reloads.Load(),
		},
		KB:    snap.KB.Stats(),
		Cache: snap.Explainer.CacheStats(),
		Queries: queryStats{
			Explains: s.explains.Load(),
			Errors:   s.errors.Load(),
			Timeouts: s.timeouts.Load(),
		},
		Live: liveStatsOf(s.store.LiveStats()),
		Sync: syncStatsOf(s.syncEngine()),
	})
}

// healthResponse is the /healthz liveness answer, carrying the active
// KB version so probes and the router's generation-aware pinning can
// watch swaps land, the explicit draining flag, plus build
// identification so a fleet rollout can confirm which binary answered.
type healthResponse struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	// Syncing reports a replica catch-up in progress: the generation and
	// fingerprint above are honest but possibly behind the fleet.
	Syncing   bool   `json:"syncing,omitempty"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Chaos seam: a flapping health endpoint while the query path still
	// works — the health checker's view and the client's view diverge.
	if err := s.failpoint(FailHealthz); err != nil {
		httpjson.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	snap := s.store.Current()
	b := rex.Build()
	resp := healthResponse{
		Status:      "ok",
		Generation:  snap.Generation,
		Fingerprint: snap.Fingerprint,
		GoVersion:   b.GoVersion,
		Revision:    b.Revision,
	}
	if e := s.syncEngine(); e != nil && e.Syncing() {
		resp.Syncing = true
	}
	// During a graceful shutdown the probe flips to 503 before the
	// listener closes, so load balancers drain this instance while its
	// in-flight (and still-routed) requests finish normally.
	if s.draining.Load() {
		resp.Status = "draining"
		resp.Draining = true
		httpjson.Write(w, http.StatusServiceUnavailable, resp)
		return
	}
	httpjson.Write(w, http.StatusOK, resp)
}
