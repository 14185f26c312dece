// Package httpjson holds the response helpers the replica (serve) and
// the router (cluster) share, so the two tiers write one JSON style:
// compact, one object per body, a newline after it.
package httpjson

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
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

// StatusRecorder captures the status code a handler wrote so a request
// counter can label it. Status starts at whatever the wrapper sets
// (http.StatusOK for a handler that never calls WriteHeader).
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

func (w *StatusRecorder) WriteHeader(code int) {
	w.Status = code
	w.ResponseWriter.WriteHeader(code)
}

// Hijack forwards to the underlying writer so a failpoint seam can
// kill a connection mid-body.
func (w *StatusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if hj, ok := w.ResponseWriter.(http.Hijacker); ok {
		return hj.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}
