// Package httpjson holds what the replica (serve) and the router
// (cluster) share at the HTTP edge, so the two tiers write one JSON
// style — compact, one object per body, a newline after it — count and
// time their endpoints one way, agree on request IDs and refuse the
// same retired request fields.
package httpjson

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"time"

	"rex/internal/obs"
)

// Write sends v with the given status as json.NewEncoder(w).Encode(v)
// writes it: compact, HTML-escaped, newline-terminated. Pipe a body
// through `jq .` to read it indented.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the response is already committed
}

// ErrorResponse is the JSON error shape of every endpoint.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteError sends msg as an ErrorResponse with the given status.
func WriteError(w http.ResponseWriter, status int, msg string) {
	Write(w, status, ErrorResponse{Error: msg})
}

// ErrExpansionCap is the 400 both tiers answer a request carrying
// budget_expansions with: the path-search cap it set is gone, and a
// query's only bound is its wall-clock budget.
var ErrExpansionCap = errors.New("budget_expansions is not supported: bound the query with budget_ms")

// Instrument wraps h so every request it answers ticks requests, a
// counter family labelled (endpoint, status code), and observes its
// wall time in seconds in duration, a histogram family labelled
// endpoint. A handler that never calls WriteHeader counts as 200.
func Instrument(endpoint string, requests, duration *obs.Family, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		requests.With(endpoint, strconv.Itoa(rec.status)).Inc()
		duration.With(endpoint).Observe(time.Since(t0).Seconds())
	}
}

// statusRecorder captures the status code a handler wrote so the
// request counter can label it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Hijack forwards to the underlying writer so a failpoint seam can
// kill a connection mid-body.
func (w *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := w.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// Request identity: every request carries an X-Request-Id, adopted from
// the caller (a client, or the router tier stamping every attempt of a
// hedged query) or minted at the first tier that sees it. Both tiers
// echo it on the response and the replica stamps it into the query
// trace and the slow-query log, so both attempts of one logical query
// carry the same ID and the router's logs line up with each replica's
// forensics.

// RequestIDHeader is the wire header carrying the request ID.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen caps a caller-supplied ID before it enters logs and
// traces; overlong IDs are replaced, not truncated, so a spoofed prefix
// cannot impersonate another request.
const maxRequestIDLen = 64

// RequestID adopts r's X-Request-Id when it is non-empty and at most 64
// bytes long, and otherwise mints a random one of 16 hex characters.
// crypto/rand never fails on the supported platforms; on the impossible
// error path the constant fallback still yields a well-formed (if
// non-unique) ID.
func RequestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" && len(id) <= maxRequestIDLen {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
