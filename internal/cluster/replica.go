package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaConfig names one replica and where to reach it.
type ReplicaConfig struct {
	Name string // stable identity for logs, metrics and failpoints
	URL  string // base URL, e.g. http://127.0.0.1:8081
}

// replica is the router's view of one rexserve instance: address,
// breaker, and the soft health state the checker maintains. knownGen is
// the router's best estimate of the replica's generation — lifted by
// delta acks and observed query responses, overwritten (downward
// included) by health probes so a cold-restarted replica is caught —
// used to deprioritize replicas that missed a delta, so one client
// never sees generations move backwards across failovers.
type replica struct {
	name    string
	baseURL string
	breaker *breaker

	healthy  atomic.Bool
	draining atomic.Bool
	knownGen atomic.Uint64
	// ackSeq counts the times an ack or a query response moved knownGen.
	// A probe reads it before it is sent: if it has moved when the answer
	// arrives, the answer is older than what moved it (see adoptGen).
	ackSeq atomic.Uint64
	// downSeq counts the connect failures on the request path that
	// marked the replica down; a probe overtaken by one must not mark it
	// healthy again (see markDown).
	downSeq atomic.Uint64
	checks  atomic.Uint64 // completed health probes, for tests/metrics

	// lagging marks a replica the router has caught below the
	// generation floor: excluded from chains and delta fan-out until a
	// probe or ack shows it caught up (candidates clears the flag).
	lagging  atomic.Bool
	lastKick atomic.Int64 // unixnano of the last sync kick (rate limit)

	// probed is the last health probe's (generation, fingerprint) pair,
	// stored as one pointer so a fingerprint is never compared against
	// another probe's generation. Re-admission uses it to refuse a
	// replica whose content at the fleet's generation provably differs
	// from a trusted peer's — generation numbers alone cannot tell a
	// healed replica from a forked one.
	probed atomic.Pointer[probeInfo]
}

// probeInfo is one health probe's version observation.
type probeInfo struct {
	gen uint64
	fp  string
}

// liftGen raises knownGen to at least g (CAS max) — for delta acks and
// query responses, which prove the replica holds at least g. ackSeq
// moves before knownGen does, so a probe that finds ackSeq unchanged
// has not missed a raise.
func (rp *replica) liftGen(g uint64) {
	for {
		cur := rp.knownGen.Load()
		if g <= cur {
			return
		}
		rp.ackSeq.Add(1)
		if rp.knownGen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// ackDiverged records a broadcast ack at a generation the fleet did not
// apply at: the replica's truthful generation, adopted downward
// included, and newer than any probe still in flight.
func (rp *replica) ackDiverged(g uint64) {
	rp.ackSeq.Add(1)
	rp.knownGen.Store(g)
}

// adoptGen folds in a health probe's observation; seq is ackSeq as read
// before the probe was sent. Normally the probe overwrites knownGen,
// downward included: a replica restarted over an empty data dir comes
// back at generation 1, and treating knownGen as a pure maximum would
// keep routing deltas to it and fork its history at already-published
// generation numbers. But a probe that an ack overtook — the replica
// answered it, then applied a delta whose ack reached the router first —
// carries the older generation, and storing it would drop a current
// replica below the floor and out of the next broadcast; such a probe
// may only raise. The CAS makes the check and the store one step: an ack
// landing between them fails it, and the retry sees ackSeq moved.
func (rp *replica) adoptGen(g, seq uint64) {
	for {
		cur := rp.knownGen.Load()
		if rp.ackSeq.Load() != seq {
			rp.liftGen(g)
			return
		}
		if rp.knownGen.CompareAndSwap(cur, g) {
			return
		}
	}
}

// markDown records a connect-class failure on the request path: the
// replica stops receiving attempts now, not at the next health tick. A
// probe the replica answered just before it died may still be on its
// way back; downSeq tells checkHealth that answer is the older news.
func (rp *replica) markDown() {
	rp.downSeq.Add(1)
	rp.healthy.Store(false)
}

// routable reports whether queries may be sent here: the checker saw it
// healthy (a draining replica still finishes in-flight work but takes
// no new routing — that is the drain contract) and its breaker admits.
func (rp *replica) routable() bool {
	return rp.healthy.Load() && !rp.draining.Load() && rp.breaker.allow()
}

// healthBody is the subset of the rexserve /healthz JSON the router
// consumes.
type healthBody struct {
	Status      string `json:"status"`
	Draining    bool   `json:"draining"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

// checkHealth probes the replica once and folds the result into its
// soft state. A 200 marks it healthy; a 503 with draining=true marks it
// draining (reachable, bleeding traffic, not routable); anything else —
// connect error, 5xx, garbage body — marks it unhealthy. The generation
// is adopted from any parseable body, draining included: a draining
// replica's version info is still truthful.
func (rp *replica) checkHealth(ctx context.Context, client *http.Client) {
	defer rp.checks.Add(1)
	seq, down := rp.ackSeq.Load(), rp.downSeq.Load()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rp.baseURL+"/healthz", nil)
	if err != nil {
		rp.healthy.Store(false)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		rp.healthy.Store(false)
		return
	}
	defer resp.Body.Close()
	var hb healthBody
	bodyErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&hb)
	if bodyErr == nil && hb.Generation > 0 {
		rp.adoptGen(hb.Generation, seq)
		rp.probed.Store(&probeInfo{gen: hb.Generation, fp: hb.Fingerprint})
	}
	// Reachable as of this answer — unless the request path has failed to
	// connect since the probe left, which is newer; the next probe decides.
	reachable := rp.downSeq.Load() == down
	switch {
	case resp.StatusCode == http.StatusOK && bodyErr == nil:
		rp.healthy.Store(reachable)
		rp.draining.Store(false)
	case resp.StatusCode == http.StatusServiceUnavailable && bodyErr == nil && hb.Draining:
		// Honoring the drain: the replica is alive and finishing its
		// in-flight work, but asked the tier to stop routing here.
		rp.healthy.Store(reachable)
		rp.draining.Store(true)
	default:
		rp.healthy.Store(false)
	}
}

// healthChecker polls every replica on a fixed interval from one
// goroutine per replica (a stalled probe against one replica must not
// delay the others' checks).
type healthChecker struct {
	interval time.Duration
	client   *http.Client
	stop     chan struct{}
	wg       sync.WaitGroup
}

func newHealthChecker(interval time.Duration, client *http.Client) *healthChecker {
	if interval <= 0 {
		interval = time.Second
	}
	return &healthChecker{interval: interval, client: client, stop: make(chan struct{})}
}

func (hc *healthChecker) start(replicas []*replica) {
	for _, rp := range replicas {
		hc.wg.Add(1)
		go func(rp *replica) {
			defer hc.wg.Done()
			t := time.NewTicker(hc.interval)
			defer t.Stop()
			for {
				ctx, cancel := context.WithTimeout(context.Background(), hc.interval)
				rp.checkHealth(ctx, hc.client)
				cancel()
				select {
				case <-hc.stop:
					return
				case <-t.C:
				}
			}
		}(rp)
	}
}

func (hc *healthChecker) close() {
	close(hc.stop)
	hc.wg.Wait()
}

// replicaStatus is one replica's row in the router's /healthz answer.
type replicaStatus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Healthy    bool   `json:"healthy"`
	Draining   bool   `json:"draining,omitempty"`
	Lagging    bool   `json:"lagging,omitempty"`
	Generation uint64 `json:"generation"`
	Breaker    string `json:"breaker"`
}

func (rp *replica) status() replicaStatus {
	return replicaStatus{
		Name:       rp.name,
		URL:        rp.baseURL,
		Healthy:    rp.healthy.Load(),
		Draining:   rp.draining.Load(),
		Lagging:    rp.lagging.Load(),
		Generation: rp.knownGen.Load(),
		Breaker:    rp.breaker.current().String(),
	}
}

func (rp *replica) String() string {
	return fmt.Sprintf("%s(%s)", rp.name, rp.baseURL)
}
