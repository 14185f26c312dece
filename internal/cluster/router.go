package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/httpjson"
)

// Config parameterises one Router.
type Config struct {
	// Replicas is the static replica set. At least one is required.
	Replicas []ReplicaConfig
	// Client performs replica requests; nil uses a default with sane
	// connection pooling. Health checks share it.
	Client *http.Client
	// HealthInterval is the /healthz polling period (default 1s).
	HealthInterval time.Duration

	// Retries is how many full passes over a query's failover chain are
	// made before giving up (default 3). Passes after the first sleep an
	// exponentially growing, jittered backoff.
	Retries   int
	RetryBase time.Duration // first inter-pass backoff (default 50ms)
	RetryMax  time.Duration // backoff cap (default 2s)

	// Hedging: budgeted queries that outlive the observed p95 latency
	// fire a duplicate attempt against the next replica; first answer
	// wins, the loser is cancelled. HedgeMin/HedgeMax clamp the
	// p95-derived delay (defaults 10ms / 2s); DisableHedging turns the
	// mechanism off (the control in TestRouterUnhedgedEatsTheStall).
	HedgeMin       time.Duration
	HedgeMax       time.Duration
	DisableHedging bool

	// Breaker tuning; zero values take the breaker defaults.
	BreakerThreshold int
	BreakerBase      time.Duration
	BreakerMax       time.Duration

	// VNodes per replica on the hash ring (default 64).
	VNodes int

	// SyncKickInterval rate-limits per-replica catch-up kicks
	// (POST /admin/sync) fired at lagging replicas (default 5s).
	SyncKickInterval time.Duration
}

// Router routes (pair, budget) queries across the replica set. All
// state is soft — health, breakers, latency, the generation floor — so
// a router restart costs nothing but a health-check round.
type Router struct {
	cfg      Config
	client   *http.Client
	replicas []*replica
	ring     *ring
	checker  *healthChecker
	m        *routerMetrics

	// genFloor is the largest generation ever returned to a client.
	// Responses below it are re-routed, and replicas known to be below
	// it are deprioritized — the cross-replica monotonicity invariant:
	// no client observes the KB moving backwards.
	genFloor atomicMax

	// deltaMu serialises delta broadcasts: the stores are deterministic,
	// so identical apply order keeps every replica's fingerprint equal.
	deltaMu sync.Mutex

	// adminAuth is the last Authorization header a replica *accepted* on
	// an /admin/delta broadcast, replayed on sync kicks so
	// token-protected replicas accept them. Unvalidated headers are
	// never stored — one bad token must not poison future kicks.
	adminAuth atomic.Pointer[string]

	lat latencyRing
}

// atomicMax is a CAS-max uint64.
type atomicMax struct{ v atomic.Uint64 }

func (a *atomicMax) load() uint64 { return a.v.Load() }
func (a *atomicMax) lift(g uint64) {
	for {
		cur := a.v.Load()
		if g <= cur || a.v.CompareAndSwap(cur, g) {
			return
		}
	}
}

// New builds a Router; Start begins health checking.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: at least one replica required")
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.HedgeMin <= 0 {
		cfg.HedgeMin = 10 * time.Millisecond
	}
	if cfg.HedgeMax <= 0 {
		cfg.HedgeMax = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	bcfg := breakerConfig{threshold: cfg.BreakerThreshold, baseBackoff: cfg.BreakerBase, maxBackoff: cfg.BreakerMax}
	rt := &Router{cfg: cfg, client: client}
	for i, rc := range cfg.Replicas {
		name := rc.Name
		if name == "" {
			name = fmt.Sprintf("r%d", i)
		}
		u, err := url.Parse(rc.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: replica %s: bad URL %q", name, rc.URL)
		}
		rt.replicas = append(rt.replicas, &replica{
			name:    name,
			baseURL: u.Scheme + "://" + u.Host,
			breaker: newBreaker(bcfg),
		})
	}
	rt.ring = newRing(len(rt.replicas), cfg.VNodes)
	rt.checker = newHealthChecker(cfg.HealthInterval, client)
	rt.m = newRouterMetrics(rt)
	rt.lat.init(256)
	return rt, nil
}

// Start performs one synchronous health sweep — so the first request
// already sees real health, not optimistic defaults — then begins the
// periodic checks.
func (rt *Router) Start() {
	rt.sweep()
	rt.checker.start(rt.replicas)
	go func() {
		t := time.NewTicker(rt.checker.interval)
		defer t.Stop()
		for {
			select {
			case <-rt.checker.stop:
				return
			case <-t.C:
				rt.reconcileLagging()
			}
		}
	}()
}

// sweep probes every replica once, concurrently, and waits for all of
// them.
func (rt *Router) sweep() {
	var wg sync.WaitGroup
	for _, rp := range rt.replicas {
		wg.Add(1)
		go func(rp *replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), rt.checker.interval)
			defer cancel()
			rp.checkHealth(ctx, rt.client)
		}(rp)
	}
	wg.Wait()
}

// Close stops the health checker.
func (rt *Router) Close() { rt.checker.close() }

// GenFloor exposes the monotonicity floor (tests, metrics).
func (rt *Router) GenFloor() uint64 { return rt.genFloor.load() }

// candidates returns the key's failover chain: ring preference order,
// with replicas known to be at or above the generation floor ahead of
// stale ones. Stale replicas stay in the chain as a last resort — their
// health view may simply lag — but every response is still checked
// against the floor before it reaches a client. Replicas *marked*
// lagging (caught below the floor, sync kicked) are excluded outright
// until their probed generation reaches the floor again without their
// probed fingerprint contradicting the fleet's — that is the
// re-admission gate — unless excluding them would empty the chain,
// where availability wins over freshness.
func (rt *Router) candidates(key string) []*replica {
	order := rt.ring.order(key)
	floor := rt.genFloor.load()
	out := make([]*replica, 0, len(order))
	var stale, lagging []*replica
	for _, i := range order {
		rp := rt.replicas[i]
		if rp.knownGen.Load() >= floor && (!rp.lagging.Load() || !rt.forkSuspect(rp)) {
			// Automatic re-admission: a lagging replica whose probed
			// generation caught back up rejoins at its ring position —
			// unless its probed fingerprint contradicts a trusted
			// replica's at the same generation (a fork wearing the
			// fleet's generation number; see forkSuspect).
			rp.lagging.Store(false)
			out = append(out, rp)
		} else if rp.lagging.Load() {
			lagging = append(lagging, rp)
		} else {
			stale = append(stale, rp)
		}
	}
	out = append(out, stale...)
	if len(out) == 0 {
		return lagging
	}
	return out
}

// proxyResult is one replica's buffered answer, ready to forward.
type proxyResult struct {
	status      int
	contentType string
	retryAfter  string // preserved from a forwarded 429
	body        []byte
	replica     *replica
	generation  uint64 // a 200 query response's generationHeader, else 0
}

// generationHeader is where a replica states the generation that
// answered a 200 from /explain or /batch (serve.GenerationHeader). The
// router pins and floor-checks on it, and never reads a query body.
const generationHeader = "X-Rex-Generation"

// maxProxyBody bounds one buffered replica response. Batch responses
// over the wire dominate; 64 MiB comfortably holds a maximal batch.
const maxProxyBody = 64 << 20

// errNoReplica is returned when a request exhausts its failover chain.
var errNoReplica = errors.New("cluster: no routable replica")

// attempt sends one request to one replica and classifies the answer.
// terminal=true means the result must go to the client as-is (success,
// client error, or 429 — shed is shed, the router never retries a shed
// request into an overloaded fleet); terminal=false with err set means
// the chain should move on (connect failure, a body cut short of its
// framing, 5xx, a 200 without a generation, stale generation).
func (rt *Router) attempt(ctx context.Context, rp *replica, method, path, rawQuery string, body []byte, reqID string) (res *proxyResult, terminal bool, err error) {
	u := rp.baseURL + path
	if rawQuery != "" {
		u += "?" + rawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, false, err
	}
	req.Header.Set(httpjson.RequestIDHeader, reqID)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		// Connect-class failure: trip the breaker and mark the replica
		// down immediately — a SIGKILLed process should stop receiving
		// attempts now, not at the next health tick.
		rp.breaker.failure()
		if ctx.Err() == nil {
			rp.markDown()
		}
		return nil, false, fmt.Errorf("%s: %w", rp.name, err)
	}
	defer resp.Body.Close()
	// One buffer of the announced size when the replica sent a
	// Content-Length; a chunked body grows it as it arrives. Either way a
	// body that ends before its framing says so is a read error here.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 {
		// ReadFrom wants MinRead spare bytes before every read, the one
		// that finds EOF included.
		buf.Grow(int(min(n, maxProxyBody)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxProxyBody)); err != nil {
		rp.breaker.failure()
		return nil, false, fmt.Errorf("%s: reading body: %w", rp.name, err)
	}
	raw := buf.Bytes()
	switch {
	case resp.StatusCode >= 500:
		rp.breaker.failure()
		return nil, false, fmt.Errorf("%s: status %d", rp.name, resp.StatusCode)
	case resp.StatusCode == http.StatusTooManyRequests:
		// The replica is alive and protecting itself; forward the shed
		// (and its Retry-After) untouched.
		rp.breaker.success()
		return &proxyResult{
			status:      resp.StatusCode,
			contentType: resp.Header.Get("Content-Type"),
			retryAfter:  resp.Header.Get("Retry-After"),
			body:        raw,
			replica:     rp,
		}, true, nil
	}
	rp.breaker.success()
	pr := &proxyResult{status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"), body: raw, replica: rp}
	if resp.StatusCode == http.StatusOK {
		gen, err := strconv.ParseUint(resp.Header.Get(generationHeader), 10, 64)
		if err != nil || gen == 0 {
			// A 200 the router cannot attribute to a generation is a
			// corrupt replica answer — never forward it.
			return nil, false, fmt.Errorf("%s: 200 without a %s", rp.name, generationHeader)
		}
		pr.generation = gen
		rp.liftGen(gen)
		if floor := rt.genFloor.load(); gen < floor {
			// The replica answered from a snapshot older than one a
			// client has already seen; serving it would move the KB
			// backwards. Route on, and tell the straggler to catch up.
			rt.m.staleRejects.Inc()
			rt.noteLagging(rp)
			return nil, false, fmt.Errorf("%s: generation %d below floor %d", rp.name, gen, floor)
		}
	}
	return pr, true, nil
}

// trySequence walks the failover chain until a terminal answer, making
// cfg.Retries passes with jittered exponential backoff between them. A
// replica whose breaker refuses (or that is known-dead) is skipped; the
// pass structure means a chain that is briefly all-down gets re-walked
// after the backoff instead of failing the client immediately — riding
// out the gap between a replica dying and its successor warming.
func (rt *Router) trySequence(ctx context.Context, cands []*replica, method, path, rawQuery string, body []byte, reqID string) (*proxyResult, error) {
	var lastErr error
	for round := 0; round < rt.cfg.Retries; round++ {
		if round > 0 {
			rt.m.retries.Inc()
			if err := sleepCtx(ctx, backoffFor(round, rt.cfg.RetryBase, rt.cfg.RetryMax)); err != nil {
				return nil, err
			}
		}
		attempted := false
		for i, rp := range cands {
			if !rp.routable() {
				continue
			}
			attempted = true
			if round > 0 || i > 0 {
				rt.m.failovers.Inc()
			}
			res, terminal, err := rt.attempt(ctx, rp, method, path, rawQuery, body, reqID)
			if terminal {
				return res, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		if !attempted && lastErr == nil {
			lastErr = errNoReplica
		}
	}
	if lastErr == nil {
		lastErr = errNoReplica
	}
	return nil, lastErr
}

// backoffFor is the inter-pass backoff: base·2^(round-1), capped, with
// uniform jitter over [1/2, 1]× so concurrent failed-over requests do
// not re-walk the chain in lockstep.
func backoffFor(round int, base, max time.Duration) time.Duration {
	d := base << (round - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + rand.N(d/2+1)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// routeQuery answers /explain through the chain-with-hedging machinery.
// The primary attempt walks the key's failover chain; if the query is
// budgeted and the primary outlives the hedge delay, a duplicate walk
// starts one position down the chain, both carrying the same
// X-Request-Id. First terminal answer wins; the loser's context is
// cancelled so the fleet never does more than one extra query of work.
func (rt *Router) routeQuery(ctx context.Context, cands []*replica, method, path, rawQuery string, body []byte, reqID string, budgeted bool) (*proxyResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type seqOut struct {
		res    *proxyResult
		err    error
		hedged bool
	}
	out := make(chan seqOut, 2)
	launch := func(c []*replica, hedged bool) {
		go func() {
			res, err := rt.trySequence(ctx, c, method, path, rawQuery, body, reqID)
			out <- seqOut{res, err, hedged}
		}()
	}
	launch(cands, false)
	inFlight := 1

	var hedgeC <-chan time.Time
	hedgeFired := false
	if budgeted && !rt.cfg.DisableHedging && len(cands) > 1 {
		t := time.NewTimer(rt.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}

	var firstErr error
	for inFlight > 0 {
		select {
		case o := <-out:
			inFlight--
			if o.err == nil {
				if hedgeFired {
					if o.hedged {
						rt.m.hedges.With("won").Inc()
					} else {
						rt.m.hedges.With("lost").Inc()
					}
				}
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
		case <-hedgeC:
			hedgeC = nil
			hedgeFired = true
			inFlight++
			rt.m.hedgesFired.Inc()
			// Start the duplicate one position down the chain so the two
			// walks begin on different replicas.
			rotated := append(append([]*replica{}, cands[1:]...), cands[0])
			launch(rotated, true)
		}
	}
	return nil, firstErr
}

// hedgeDelay derives the duplicate-attempt delay from the observed p95
// query latency, clamped to [HedgeMin, HedgeMax]. Before enough
// latencies exist the delay is HedgeMax — hedge conservatively until
// the tier knows what slow means here.
func (rt *Router) hedgeDelay() time.Duration {
	p95 := rt.lat.p95()
	if p95 <= 0 {
		return rt.cfg.HedgeMax
	}
	return min(max(p95, rt.cfg.HedgeMin), rt.cfg.HedgeMax)
}

// latencyRing keeps the most recent successful query latencies for the
// p95 derivation.
type latencyRing struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int
}

func (l *latencyRing) init(size int) { l.buf = make([]time.Duration, size) }

func (l *latencyRing) note(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// p95 returns the 95th percentile of the retained latencies, or 0 when
// fewer than 16 have been observed (warmup).
func (l *latencyRing) p95() time.Duration {
	l.mu.Lock()
	sample := make([]time.Duration, l.n)
	copy(sample, l.buf[:l.n])
	l.mu.Unlock()
	if len(sample) < 16 {
		return 0
	}
	sort.Slice(sample, func(a, b int) bool { return sample[a] < sample[b] })
	return sample[(len(sample)*95)/100]
}

// parsedQuery is the routing-relevant shape of one /explain request.
type parsedQuery struct {
	start, end string
	budgetMS   int64
}

func (p parsedQuery) budgeted() bool { return p.budgetMS > 0 }

// parseExplain extracts the pair and budget from a GET query string or
// a POST body without validating further — the replica owns request
// validation; the router only needs the routing key.
func parseExplain(r *http.Request, body []byte) (parsedQuery, error) {
	var p parsedQuery
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		p.start, p.end = q.Get("start"), q.Get("end")
		if v := q.Get("budget_ms"); v != "" {
			p.budgetMS, _ = strconv.ParseInt(v, 10, 64)
		}
	case http.MethodPost:
		var req struct {
			Start    string `json:"start"`
			End      string `json:"end"`
			BudgetMS int64  `json:"budget_ms"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return p, fmt.Errorf("invalid JSON body: %w", err)
		}
		p = parsedQuery{req.Start, req.End, req.BudgetMS}
	default:
		return p, errors.New("use GET or POST")
	}
	return p, nil
}
