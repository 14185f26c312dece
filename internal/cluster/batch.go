package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"rex/internal/httpjson"
)

// Batch routing. A /batch is scattered by ring ownership: each pair
// goes to its owner's failover chain, the sub-batches run concurrently,
// and the results are reassembled in request order. The generation
// invariant of the single-replica /batch — the whole batch answers from
// one pinned snapshot — must survive the scatter, so a gather that
// mixed generations (a delta landed between sub-responses, or a stale
// replica answered a chain) is discarded and the entire batch re-sent
// to one replica holding the newest observed generation: one replica
// pins one snapshot, so the repin is single-generation by construction.

type batchPair struct {
	Start string `json:"start"`
	End   string `json:"end"`
}

type batchRequest struct {
	Pairs    []batchPair `json:"pairs"`
	BudgetMS int64       `json:"budget_ms,omitempty"`
	// Expansions holds budget_expansions only so that the router
	// refuses it, as a replica does: re-marshalled sub-batches would
	// drop it.
	Expansions json.RawMessage `json:"budget_expansions,omitempty"`
	Trace      bool            `json:"trace,omitempty"`
	SQL        bool            `json:"sql,omitempty"`
}

// batchWire is the replica /batch response with each entry kept as raw
// JSON: the router reorders entries but never interprets results.
type batchWire struct {
	Results     []json.RawMessage `json:"results"`
	Generation  uint64            `json:"generation"`
	Fingerprint string            `json:"fingerprint"`
}

// gatheredBatch is the client-facing reassembled response.
type gatheredBatch struct {
	Results     []json.RawMessage `json:"results"`
	Generation  uint64            `json:"generation"`
	Fingerprint string            `json:"fingerprint"`
	ElapsedMS   float64           `json:"elapsed_ms"`
}

// subResult is one gathered sub-batch: which original pair indices it
// covered and the replica answer.
type subResult struct {
	indices []int
	res     *proxyResult
}

// maxBatchBody bounds one inbound /batch request body.
const maxBatchBody = 32 << 20

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	reqID := httpjson.RequestID(r)
	w.Header().Set(httpjson.RequestIDHeader, reqID)
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBody))
	if err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Pairs) == 0 {
		httpjson.WriteError(w, http.StatusBadRequest, "pairs must be non-empty")
		return
	}
	if req.Expansions != nil {
		httpjson.WriteError(w, http.StatusBadRequest, httpjson.ErrExpansionCap.Error())
		return
	}
	t0 := time.Now()

	// Scatter by ring owner. Pairs whose chains start at the same
	// replica share one sub-batch, so the common case (few replicas,
	// many pairs) stays a handful of sub-requests.
	type group struct {
		indices []int
		pairs   []batchPair
		chain   []*replica
	}
	groups := map[string]*group{}
	for i, p := range req.Pairs {
		chain := rt.candidates(queryKey(p.Start, p.End))
		if len(chain) == 0 {
			httpjson.WriteError(w, http.StatusServiceUnavailable, errNoReplica.Error())
			return
		}
		k := chain[0].name
		g := groups[k]
		if g == nil {
			g = &group{chain: chain}
			groups[k] = g
		}
		g.indices = append(g.indices, i)
		g.pairs = append(g.pairs, p)
	}

	type subOut struct {
		sub subResult
		err error
	}
	out := make(chan subOut, len(groups))
	for _, g := range groups {
		go func(g *group) {
			sb, _ := json.Marshal(batchRequest{Pairs: g.pairs, BudgetMS: req.BudgetMS, Trace: req.Trace, SQL: req.SQL})
			res, err := rt.trySequence(r.Context(), g.chain, http.MethodPost, "/batch", "", sb, reqID)
			out <- subOut{subResult{indices: g.indices, res: res}, err}
		}(g)
	}

	// Gather. Any non-200 terminal sub-response (a 4xx the replicas
	// agree on, or a 429 shed) answers the whole batch — merging partial
	// HTTP failures would hide them from the client.
	subs := make([]subResult, 0, len(groups))
	for range groups {
		o := <-out
		if o.err != nil {
			httpjson.WriteError(w, http.StatusServiceUnavailable, "no replica answered: "+o.err.Error())
			return
		}
		if o.sub.res.status != http.StatusOK {
			forward(w, reqID, o.sub.res)
			return
		}
		subs = append(subs, o.sub)
	}

	gathered, mixed, err := assembleBatch(len(req.Pairs), subs)
	if err != nil {
		httpjson.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	if mixed {
		// Generations mixed across sub-responses: repin the whole batch
		// on the freshest replica observed in the gather.
		rt.m.batchRepins.Inc()
		res, err := rt.repinBatch(r, subs, body, reqID)
		if err != nil {
			httpjson.WriteError(w, http.StatusServiceUnavailable, "batch repin failed: "+err.Error())
			return
		}
		if res.status == http.StatusOK {
			rt.genFloor.lift(res.generation)
		}
		forward(w, reqID, res)
		return
	}
	rt.genFloor.lift(gathered.Generation)
	rt.lat.note(time.Since(t0))
	gathered.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	w.Header().Set(generationHeader, strconv.FormatUint(gathered.Generation, 10))
	httpjson.Write(w, http.StatusOK, gathered)
}

// assembleBatch reorders sub-batch entries into request order and
// reports whether the sub-responses disagreed on generation.
func assembleBatch(n int, subs []subResult) (*gatheredBatch, bool, error) {
	g := &gatheredBatch{Results: make([]json.RawMessage, n)}
	for _, o := range subs {
		var wire batchWire
		if err := json.Unmarshal(o.res.body, &wire); err != nil {
			return nil, false, fmt.Errorf("corrupt sub-batch from %s: %v", o.res.replica.name, err)
		}
		if len(wire.Results) != len(o.indices) {
			return nil, false, fmt.Errorf("sub-batch from %s returned %d results for %d pairs",
				o.res.replica.name, len(wire.Results), len(o.indices))
		}
		for j, raw := range wire.Results {
			g.Results[o.indices[j]] = raw
		}
		if g.Generation == 0 {
			g.Generation, g.Fingerprint = wire.Generation, wire.Fingerprint
		} else if g.Generation != wire.Generation {
			return g, true, nil
		}
	}
	return g, false, nil
}

// repinBatch re-sends the entire original batch to the freshest replica
// seen in the gather, with every other replica as its failover chain.
func (rt *Router) repinBatch(r *http.Request, subs []subResult, body []byte, reqID string) (*proxyResult, error) {
	var freshest *replica
	var maxGen uint64
	for _, o := range subs {
		if o.res.generation > maxGen {
			maxGen, freshest = o.res.generation, o.res.replica
		}
	}
	chain := make([]*replica, 0, len(rt.replicas))
	if freshest != nil {
		chain = append(chain, freshest)
	}
	for _, rp := range rt.replicas {
		if rp != freshest {
			chain = append(chain, rp)
		}
	}
	return rt.trySequence(r.Context(), chain, http.MethodPost, "/batch", "", body, reqID)
}
