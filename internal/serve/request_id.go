package serve

import (
	"context"
	"net/http"

	"rex/internal/httpjson"
)

type requestIDKey struct{}

// withRequestID is the outermost-but-one middleware: it adopts a
// well-formed incoming X-Request-Id (trusting the router tier to mint
// them), mints one otherwise (see httpjson.RequestID), echoes it on the
// response, and threads it through the context for handlers and
// forensics: the query trace and the slow-query log carry it.
func (s *Server) withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := httpjson.RequestID(r)
		w.Header().Set(httpjson.RequestIDHeader, id)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

// RequestIDFrom returns the request ID threaded by withRequestID, or
// "" outside a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
