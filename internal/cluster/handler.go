package cluster

import (
	"io"
	"net/http"
	"strconv"
	"time"

	"rex/internal/httpjson"
)

// The router's HTTP surface mirrors the replica's where it proxies
// (/explain, /batch, /admin/delta) and adds its own introspection
// (/healthz over the whole tier, /metrics for the routing families).

// Handler builds the router's route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	instrument := func(endpoint string, h http.HandlerFunc) http.HandlerFunc {
		return httpjson.Instrument(endpoint, rt.m.requests, rt.m.duration, h)
	}
	mux.HandleFunc("/explain", instrument("/explain", rt.handleExplain))
	mux.HandleFunc("/batch", instrument("/batch", rt.handleBatch))
	mux.HandleFunc("/admin/delta", instrument("/admin/delta", rt.handleDelta))
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

// forward writes a replica's buffered answer to the client, unmodified
// and with its length, so this hop is not chunk-framed either.
func forward(w http.ResponseWriter, reqID string, res *proxyResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	if res.generation != 0 {
		w.Header().Set(generationHeader, strconv.FormatUint(res.generation, 10))
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
	w.Header().Set(httpjson.RequestIDHeader, reqID)
	w.Header().Set("X-Rex-Replica", res.replica.name)
	w.WriteHeader(res.status)
	w.Write(res.body) //nolint:errcheck // response already committed
}

func (rt *Router) handleExplain(w http.ResponseWriter, r *http.Request) {
	// The same ID is stamped on every replica attempt of the request: a
	// hedged duplicate is the same logical query.
	reqID := httpjson.RequestID(r)
	w.Header().Set(httpjson.RequestIDHeader, reqID)
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		if body, err = io.ReadAll(io.LimitReader(r.Body, 1<<20)); err != nil {
			httpjson.WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
			return
		}
	}
	pq, err := parseExplain(r, body)
	if err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := queryKey(pq.start, pq.end)
	t0 := time.Now()
	res, err := rt.routeQuery(r.Context(), rt.candidates(key), r.Method, "/explain", r.URL.RawQuery, body, reqID, pq.budgeted())
	if err != nil {
		httpjson.WriteError(w, http.StatusServiceUnavailable, "no replica answered: "+err.Error())
		return
	}
	if res.status == http.StatusOK {
		rt.lat.note(time.Since(t0))
		rt.genFloor.lift(res.generation)
	}
	forward(w, reqID, res)
}

// routerHealth is the router's /healthz body: tier-level status plus
// every replica's row, so one probe shows the whole topology.
type routerHealth struct {
	Status          string          `json:"status"`
	RoutableCount   int             `json:"routable_count"`
	GenerationFloor uint64          `json:"generation_floor"`
	Replicas        []replicaStatus `json:"replicas"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := routerHealth{Status: "ok", GenerationFloor: rt.genFloor.load()}
	for _, rp := range rt.replicas {
		st := rp.status()
		if st.Healthy && !st.Draining {
			h.RoutableCount++
		}
		h.Replicas = append(h.Replicas, st)
	}
	status := http.StatusOK
	if h.RoutableCount == 0 {
		h.Status = "unavailable"
		status = http.StatusServiceUnavailable
	}
	httpjson.Write(w, status, h)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.m.reg.WritePrometheus(w) //nolint:errcheck // streaming response
}
