package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"rex/internal/httpjson"
)

// Delta broadcast. The router is the single writer of the tier: one
// /admin/delta fans out to every replica, serialised by deltaMu so two
// concurrent deltas cannot apply in different orders on different
// replicas (the stores are deterministic, so same order = same state =
// same fingerprint fleet-wide).
//
// Ack discipline: the broadcast succeeds once every replica that was
// healthy going in has applied. A replica that dies mid-broadcast is
// marked down and does not block the ack — it is no longer
// "currently healthy"; the router marks it lagging, kicks its sync
// engine, and re-admits it once it catches back up to the floor. The
// response row names it and reports its last known generation so the
// caller can see the lag depth. A replica that is up but *rejects* the
// delta (422) fails the whole broadcast: that is a bad delta, not a
// bad replica.
//
// A 200 ack only counts if its generation matches the fleet's. A
// replica restarted over a wiped data dir, caught before the first
// downward-adopting health probe, happily applies the broadcast onto
// near-empty state and acks a tiny generation — a forked history that
// generation numbers alone can never betray again. Such an ack is a
// failure in disguise: the replica's true (low) generation is adopted,
// it is quarantined as lagging, and its sync engine is kicked to
// repair from a peer's snapshot. The broadcast itself still succeeds
// when the rest of the fleet acked consistently — the delta IS durably
// applied, and the fork is healing, not silent.
//
// Fan-out excludes replicas already known to be below the floor:
// applying a new delta onto stale state would fork history — same
// generation numbers, different contents — which no later sync could
// reconcile. The skipped replica's WAL-tail transfer carries the delta
// to it instead, in the same order everyone else applied it.

// maxDeltaBody mirrors the replica-side bound.
const maxDeltaBody = 256 << 20

// deltaReplicaResult is one replica's row in the broadcast response.
type deltaReplicaResult struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// deltaResponse is the broadcast answer: the tier's new generation plus
// per-replica outcomes.
type deltaResponse struct {
	Generation uint64               `json:"generation"`
	Applied    int                  `json:"applied"`
	Replicas   []deltaReplicaResult `json:"replicas"`
}

func (rt *Router) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpjson.WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxDeltaBody))
	if err != nil {
		httpjson.WriteError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}

	rt.deltaMu.Lock()
	defer rt.deltaMu.Unlock()

	// Partition the fleet: replicas below the floor are excluded from
	// fan-out (divergence guard — see the package comment) and reported
	// as lagging; everyone else gets the delta.
	floor := rt.genFloor.load()
	var targets, skipped []*replica
	for _, rp := range rt.replicas {
		if rp.knownGen.Load() < floor {
			skipped = append(skipped, rp)
		} else {
			targets = append(targets, rp)
		}
	}

	// Snapshot who counts toward the ack barrier before fanning out.
	healthyBefore := map[string]bool{}
	for _, rp := range targets {
		if rp.healthy.Load() && !rp.draining.Load() {
			healthyBefore[rp.name] = true
		}
	}

	results := make([]deltaOutcome, len(targets))
	var wg sync.WaitGroup
	for i, rp := range targets {
		wg.Add(1)
		go func(i int, rp *replica) {
			defer wg.Done()
			results[i] = rt.applyDeltaTo(r.Context(), rp, body, r.Header.Get("Authorization"))
		}(i, rp)
	}
	wg.Wait()

	// Establish the fleet's post-apply generation from the successful
	// acks before counting any of them. Acks below the floor cannot
	// vote — a wiped replica acking a tiny generation must not define
	// "the fleet" and quarantine the healthy majority. Among voters,
	// majority wins (ties to the higher generation); deterministic
	// stores applying the same delta in the same order cannot honestly
	// disagree, so any losing ack applied onto a forked history.
	floorVotes := map[uint64]int{}
	for i := range results {
		o := &results[i]
		if o.err == nil && o.status == http.StatusOK && o.gen >= floor {
			floorVotes[o.gen]++
		}
	}
	var fleetGen uint64
	bestVotes := 0
	for gen, n := range floorVotes {
		if n > bestVotes || (n == bestVotes && gen > fleetGen) {
			fleetGen, bestVotes = gen, n
		}
	}

	resp := deltaResponse{}
	var rejected *deltaOutcome
	failedHealthy := false
	for i := range results {
		o := &results[i]
		row := deltaReplicaResult{Name: o.rp.name, Generation: o.gen}
		switch {
		case o.err == nil && o.status == http.StatusOK && o.gen == fleetGen:
			resp.Applied++
			o.rp.liftGen(o.gen)
			if o.gen > resp.Generation {
				resp.Generation = o.gen
			}
		case o.err == nil && o.status == http.StatusOK:
			// A 200 at the wrong generation: the replica applied the
			// delta onto a history that is not the fleet's. Counting it
			// as applied would bless the fork; instead adopt its truthful
			// (divergent) generation, quarantine it and kick a repair.
			if fleetGen == 0 {
				row.Error = fmt.Sprintf("diverged: acked generation %d below floor %d; quarantined for repair", o.gen, floor)
			} else {
				row.Error = fmt.Sprintf("diverged: acked generation %d, fleet applied at %d; quarantined for repair", o.gen, fleetGen)
			}
			o.rp.ackDiverged(o.gen)
			rt.m.divergedAcks.Inc()
			rt.noteLagging(o.rp)
		case o.status >= 400 && o.status < 500 && o.status != http.StatusTooManyRequests:
			// The replica is up and says the delta itself is bad.
			rejected = o
			row.Error = fmt.Sprintf("status %d: %s", o.status, firstLine(o.body))
		default:
			// The replica missed the delta: report its last known
			// generation (the caller sees the lag depth, not a zero) and
			// start catch-up now rather than at the next stale answer.
			row.Generation = o.rp.knownGen.Load()
			row.Error = errString(o.err, o.status)
			rt.noteLagging(o.rp)
			if healthyBefore[o.rp.name] {
				failedHealthy = true
			}
		}
		resp.Replicas = append(resp.Replicas, row)
	}
	for _, rp := range skipped {
		rt.noteLagging(rp)
		resp.Replicas = append(resp.Replicas, deltaReplicaResult{
			Name:       rp.name,
			Generation: rp.knownGen.Load(),
			Error:      fmt.Sprintf("lagging below floor %d; excluded from broadcast, sync kicked", floor),
		})
	}

	// Remember the caller's Authorization header for sync kicks — but
	// only once a replica accepted a broadcast carrying it. Storing an
	// unvalidated header would let a single request with a bad token
	// poison every future kick until a good token happened to arrive.
	if auth := r.Header.Get("Authorization"); auth != "" && resp.Applied > 0 {
		rt.adminAuth.Store(&auth)
	}

	switch {
	case rejected != nil:
		rt.m.deltaBroadcasts.With("rejected").Inc()
		httpjson.Write(w, rejected.status, resp)
	case resp.Applied == 0:
		rt.m.deltaBroadcasts.With("failed").Inc()
		httpjson.Write(w, http.StatusBadGateway, resp)
	case failedHealthy:
		// Some replica that looked healthy failed mid-broadcast. If it
		// is *still* reachable the tier has silently diverged — refuse
		// the ack so the operator notices. If it died (connect errors
		// marked it down), the ack barrier legitimately shrank.
		stillUp := false
		for i := range results {
			o := &results[i]
			if o.err != nil || o.status != http.StatusOK {
				if healthyBefore[o.rp.name] && o.rp.healthy.Load() {
					stillUp = true
				}
			}
		}
		if stillUp {
			rt.m.deltaBroadcasts.With("partial").Inc()
			httpjson.Write(w, http.StatusBadGateway, resp)
			return
		}
		rt.m.deltaBroadcasts.With("ok").Inc()
		rt.genFloor.lift(resp.Generation)
		httpjson.Write(w, http.StatusOK, resp)
	default:
		rt.m.deltaBroadcasts.With("ok").Inc()
		// The new generation is client-visible from this response on;
		// lifting the floor here (not just at the next query) closes the
		// window where a stale replica could answer below it.
		rt.genFloor.lift(resp.Generation)
		httpjson.Write(w, http.StatusOK, resp)
	}
}

// deltaOutcome is one replica's raw broadcast result.
type deltaOutcome struct {
	rp     *replica
	gen    uint64
	status int
	err    error
	body   []byte
}

// applyDeltaTo posts one delta body to one replica.
func (rt *Router) applyDeltaTo(ctx context.Context, rp *replica, body []byte, auth string) (o deltaOutcome) {
	o.rp = rp
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rp.baseURL+"/admin/delta", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rp.breaker.failure()
		if ctx.Err() == nil {
			rp.markDown()
		}
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	o.body, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode == http.StatusOK {
		var swap struct {
			Generation uint64 `json:"generation"`
		}
		if json.Unmarshal(o.body, &swap) == nil {
			o.gen = swap.Generation
		}
		rp.breaker.success()
	} else if resp.StatusCode >= 500 {
		rp.breaker.failure()
	}
	return o
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

func errString(err error, status int) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("status %d", status)
}
