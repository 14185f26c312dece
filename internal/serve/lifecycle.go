package serve

import (
	"context"
	"log"
	"math/rand/v2"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"rex/internal/httpjson"
)

// Overload resilience and lifecycle: admission control bounds the
// in-flight work per endpoint class so a request flood degrades into
// fast 429s instead of a goroutine pile-up; the panic middleware keeps
// one poisoned request from killing every other connection; the
// draining flag flips /healthz to 503 ahead of a graceful shutdown so
// load balancers stop routing before the listener closes.

// classLimiter bounds the concurrently admitted requests of one
// endpoint class with a buffered-channel semaphore. A request that
// cannot get a slot waits up to the configured bound, then is shed.
// nil means unlimited.
type classLimiter struct {
	slots chan struct{}
	wait  time.Duration
	shed  atomic.Uint64
}

func newClassLimiter(max int, wait time.Duration) *classLimiter {
	if max <= 0 {
		return nil
	}
	return &classLimiter{slots: make(chan struct{}, max), wait: wait}
}

// acquire takes a slot, waiting at most the limiter's wait bound (and
// no longer than the request lives). It reports whether the request
// was admitted; a false return is already counted as shed.
func (l *classLimiter) acquire(ctx context.Context) bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
	}
	if l.wait <= 0 {
		l.shed.Add(1)
		return false
	}
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		return true
	case <-t.C:
	case <-ctx.Done():
	}
	l.shed.Add(1)
	return false
}

func (l *classLimiter) release() { <-l.slots }

// inflight reports the currently admitted requests of this class.
func (l *classLimiter) inflight() int { return len(l.slots) }

// shedCount is nil-safe for the metrics closures.
func (l *classLimiter) shedCount() uint64 {
	if l == nil {
		return 0
	}
	return l.shed.Load()
}

// AdmissionDefaults sizes the limiters when main does not override
// them. Queries are CPU-bound, so admitting far more than the core
// count only grows tail latency; admin mutations serialise on the
// store's writer lock anyway, so two slots (one active, one queued)
// lose nothing.
func AdmissionDefaults() (queries, admin int) {
	q := 4 * runtime.GOMAXPROCS(0)
	if q < 8 {
		q = 8
	}
	return q, 2
}

// DefaultAdmissionWait bounds how long an over-limit request queues
// before shedding. Long enough to absorb a burst of fast queries,
// short enough that a shed client learns quickly.
const DefaultAdmissionWait = 250 * time.Millisecond

// SetAdmission configures the per-class limiters. Call before the
// handler starts serving. max <= 0 disables the class's limit; wait <=
// 0 sheds immediately when the class is full.
func (s *Server) SetAdmission(maxQueries, maxAdmin int, wait time.Duration) {
	s.queryLimit = newClassLimiter(maxQueries, wait)
	s.adminLimit = newClassLimiter(maxAdmin, wait)
}

// admit wraps a handler with class-based admission control: over the
// in-flight bound and past the wait bound, the request is shed with
// 429 and a Retry-After hint instead of joining an unbounded goroutine
// pile.
func (s *Server) admit(l *classLimiter, h http.HandlerFunc) http.HandlerFunc {
	if l == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if !l.acquire(r.Context()) {
			w.Header().Set("Retry-After", retryAfter())
			httpjson.WriteError(w, http.StatusTooManyRequests, "server overloaded, retry later")
			return
		}
		defer l.release()
		h(w, r)
	}
}

// retryAfter is the 429 Retry-After hint with bounded server-side
// jitter. A fixed constant synchronises every shed client into one
// retry stampede that re-sheds itself indefinitely; spreading the hint
// uniformly over [1, 3] seconds decorrelates them. Whole seconds only —
// the header's delta-seconds form doesn't allow fractions.
func retryAfter() string {
	return strconv.Itoa(1 + rand.IntN(3)) // 1, 2 or 3
}

// recoverPanics is the outermost middleware: a panicking handler is
// logged with its stack and answered with a best-effort 500 instead of
// unwinding the connection goroutine. net/http would only kill that
// one connection, but through this the panic is counted, the stack is
// in the server log rather than lost to stderr interleaving, and the
// client gets a well-formed JSON error when the header is still
// unsent. http.ErrAbortHandler passes through — it is the sanctioned
// way to abort a response, not a bug.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.panics.Add(1)
				log.Printf("rexserve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				httpjson.WriteError(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		h.ServeHTTP(w, r)
	})
}

// StartDraining flips the server into drain mode: /healthz answers 503
// so load balancers and probes stop routing here, while in-flight and
// already-routed requests still complete normally. Call it before
// http.Server.Shutdown.
func (s *Server) StartDraining() { s.draining.Store(true) }
