package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rex"
	"rex/internal/fail"
	"rex/internal/serve"
)

// clusterTSV connects every node through a, so any ordered pair is
// explainable and batches can cover keys owned by different replicas.
const clusterTSV = `node	a	person
node	b	person
node	c	person
node	d	person
label	knows	U
edge	a	b	knows
edge	a	c	knows
edge	a	d	knows
`

// testReplica is one in-process rexserve instance behind a real HTTP
// listener, wrapped so chaos tests can corrupt its query responses via
// the "test.corrupt@<name>" failpoint.
type testReplica struct {
	name  string
	store *rex.Store
	srv   *serve.Server
	hs    *httptest.Server
}

func bootReplica(t *testing.T, name string, setup ...func(*serve.Server)) *testReplica {
	t.Helper()
	k, err := rex.ReadKB(strings.NewReader(clusterTSV))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{
		Measure: "size", TopK: 8, MaxPatternSize: 3, CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(store, serve.Config{Timeout: 10 * time.Second, MaxBatch: 64, Name: name})
	for _, fn := range setup {
		fn(srv)
	}
	h := srv.Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if (r.URL.Path == "/explain" || r.URL.Path == "/batch") &&
			fail.Hit("test.corrupt@"+name) != nil {
			// A 200 whose body is truncated mid-object and, like anything
			// not written by the replica's own handlers, carries no
			// X-Rex-Generation: the router must not forward it.
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"explanations": [], "genera`)) //nolint:errcheck
			return
		}
		h.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(wrapped)
	t.Cleanup(func() {
		hs.Close()
		store.Close()
	})
	return &testReplica{name: name, store: store, srv: srv, hs: hs}
}

// bootCluster starts n replicas and a router over them, tuned fast for
// tests: 15ms health checks, millisecond retries, 25ms hedge ceiling.
func bootCluster(t *testing.T, n int, mut func(*Config)) (*Router, []*testReplica) {
	t.Helper()
	t.Cleanup(fail.Reset)
	reps := make([]*testReplica, n)
	rcs := make([]ReplicaConfig, n)
	for i := range reps {
		reps[i] = bootReplica(t, fmt.Sprintf("rex-r%d", i))
		rcs[i] = ReplicaConfig{Name: reps[i].name, URL: reps[i].hs.URL}
	}
	cfg := Config{
		Replicas:       rcs,
		HealthInterval: 15 * time.Millisecond,
		Retries:        3,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       40 * time.Millisecond,
		HedgeMin:       5 * time.Millisecond,
		HedgeMax:       25 * time.Millisecond,
		BreakerBase:    10 * time.Millisecond,
		BreakerMax:     80 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	return rt, reps
}

func routerDo(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// generationOf pulls the generation field out of any response body that
// carries one.
func generationOf(t *testing.T, rec *httptest.ResponseRecorder) uint64 {
	t.Helper()
	var env struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("unparseable response body: %v\n%s", err, rec.Body.String())
	}
	return env.Generation
}

// metricSum sums every series of the named family in the router's
// /metrics output (labelled or not).
func metricSum(t *testing.T, rt *Router, family string) float64 {
	t.Helper()
	rec := routerDo(rt.Handler(), http.MethodGet, "/metrics", "")
	var sum float64
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad metric line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// uniqueDelta returns a delta stream that is safe to apply repeatedly
// with distinct n: a fresh label and node wired to a.
func uniqueDelta(n int) string {
	return fmt.Sprintf("label\tk%d\tU\nnode\tm%d\tperson\nedge\ta\tm%d\tk%d\n", n, n, n, n)
}

func TestRouterRoutesAndPinsByKey(t *testing.T) {
	rt, _ := bootCluster(t, 3, nil)
	h := rt.Handler()

	first := routerDo(h, http.MethodGet, "/explain?start=a&end=b", "")
	if first.Code != http.StatusOK {
		t.Fatalf("explain = %d: %s", first.Code, first.Body.String())
	}
	if g := generationOf(t, first); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	if got := first.Header().Get(generationHeader); got != "1" {
		t.Fatalf("%s = %q, want the body's generation 1", generationHeader, got)
	}
	if first.Header().Get("X-Request-Id") == "" {
		t.Fatal("router did not stamp X-Request-Id")
	}
	owner := first.Header().Get("X-Rex-Replica")
	if owner == "" {
		t.Fatal("router did not name the serving replica")
	}
	for i := 0; i < 5; i++ {
		rec := routerDo(h, http.MethodGet, "/explain?start=a&end=b", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("repeat explain = %d", rec.Code)
		}
		if got := rec.Header().Get("X-Rex-Replica"); got != owner {
			t.Fatalf("same key moved replicas with a healthy fleet: %s then %s", owner, got)
		}
	}

	// An inbound request ID is adopted, not replaced.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/explain?start=a&end=c", nil)
	req.Header.Set("X-Request-Id", "caller-supplied-id")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-supplied-id" {
		t.Fatalf("X-Request-Id = %q, want the caller's", got)
	}
}

// TestRouterCarriesSQL: the sql opt-in reaches the replica through the
// router on every query endpoint — as GET's query string, inside a POST
// /explain body, and in each sub-batch the /batch scatter re-encodes —
// and a request without it gets no SQL. The flag is not part of the
// ring key, so a pair answers from one replica either way.
func TestRouterCarriesSQL(t *testing.T) {
	rt, _ := bootCluster(t, 3, nil)
	h := rt.Handler()
	sqlKey := `"SQL":`
	owner := ""
	for _, tc := range []struct {
		method, target, body string
		wantSQL              bool
	}{
		{http.MethodGet, "/explain?start=a&end=b", "", false},
		{http.MethodGet, "/explain?start=a&end=b&sql=1", "", true},
		{http.MethodPost, "/explain", `{"start":"a","end":"b"}`, false},
		{http.MethodPost, "/explain", `{"start":"a","end":"b","sql":true}`, true},
	} {
		rec := routerDo(h, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s %s = %d: %s", tc.method, tc.target, tc.body, rec.Code, rec.Body)
		}
		if got := strings.Contains(rec.Body.String(), sqlKey); got != tc.wantSQL {
			t.Errorf("%s %s %s: SQL present %v, want %v: %s", tc.method, tc.target, tc.body, got, tc.wantSQL, rec.Body)
		}
		replica := rec.Header().Get("X-Rex-Replica")
		if owner == "" {
			owner = replica
		} else if replica != owner {
			t.Errorf("%s %s %s answered from %s, the pair's owner is %s", tc.method, tc.target, tc.body, replica, owner)
		}
	}

	pairs := `"pairs":[{"start":"a","end":"b"},{"start":"a","end":"c"},{"start":"a","end":"d"},{"start":"b","end":"c"},{"start":"c","end":"d"},{"start":"d","end":"b"}]`
	for _, wantSQL := range []bool{false, true} {
		body := `{` + pairs + `}`
		if wantSQL {
			body = `{` + pairs + `,"sql":true}`
		}
		rec := routerDo(h, http.MethodPost, "/batch", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch %s = %d: %s", body, rec.Code, rec.Body)
		}
		var resp struct {
			Results []struct {
				Result struct {
					Explanations []struct{ SQL *string }
				} `json:"result"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 6 {
			t.Fatalf("batch: %d results, want 6", len(resp.Results))
		}
		for i, r := range resp.Results {
			if len(r.Result.Explanations) == 0 {
				t.Fatalf("batch entry %d has no explanations: %s", i, rec.Body)
			}
			for _, e := range r.Result.Explanations {
				if got := e.SQL != nil && *e.SQL != ""; got != wantSQL {
					t.Errorf("batch sql=%v, entry %d: SQL present %v", wantSQL, i, got)
				}
			}
		}
	}
}

// TestRouterRefusesBudgetExpansions: budget_expansions, the deleted
// path-search cap, is refused with a 400 naming budget_ms on both query
// endpoints through the router — /explain by the replica it is
// forwarded to, /batch by the router itself, whose scatter re-encodes
// sub-batches and would otherwise drop the field.
func TestRouterRefusesBudgetExpansions(t *testing.T) {
	rt, _ := bootCluster(t, 2, nil)
	h := rt.Handler()
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/explain?start=a&end=b&budget_expansions=1", ""},
		{http.MethodPost, "/explain", `{"start":"a","end":"b","budget_expansions":1}`},
		{http.MethodPost, "/batch", `{"pairs":[{"start":"a","end":"b"},{"start":"c","end":"d"}],"budget_expansions":1}`},
	} {
		rec := routerDo(h, tc.method, tc.target, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "budget_ms") {
			t.Errorf("%s %s %s = %d %s; want 400 naming budget_ms", tc.method, tc.target, tc.body, rec.Code, rec.Body)
		}
	}
}

func TestRouterDeltaBroadcastLiftsFloor(t *testing.T) {
	rt, reps := bootCluster(t, 3, nil)
	h := rt.Handler()

	rec := routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(1))
	if rec.Code != http.StatusOK {
		t.Fatalf("broadcast = %d: %s", rec.Code, rec.Body.String())
	}
	var resp deltaResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 || resp.Generation != 2 {
		t.Fatalf("applied=%d generation=%d, want 3 and 2", resp.Applied, resp.Generation)
	}
	if got := rt.GenFloor(); got != 2 {
		t.Fatalf("generation floor = %d, want 2 after an acked broadcast", got)
	}
	// Every store really applied, and every fingerprint agrees: same
	// order everywhere means the tier cannot silently diverge.
	fp := ""
	for _, r := range reps {
		snap := r.store.Current()
		if snap.Generation != 2 {
			t.Fatalf("%s at generation %d, want 2", r.name, snap.Generation)
		}
		if fp == "" {
			fp = snap.Fingerprint
		} else if snap.Fingerprint != fp {
			t.Fatalf("fingerprint diverged on %s", r.name)
		}
	}
	// The new entity answers through the router at the new generation.
	q := routerDo(h, http.MethodGet, "/explain?start=a&end=m1", "")
	if q.Code != http.StatusOK {
		t.Fatalf("post-delta explain = %d: %s", q.Code, q.Body.String())
	}
	if g := generationOf(t, q); g != 2 {
		t.Fatalf("post-delta generation = %d, want 2", g)
	}
}

func TestRouterFailoverOnKilledReplica(t *testing.T) {
	rt, reps := bootCluster(t, 3, nil)
	h := rt.Handler()

	// Kill one replica outright — connections refused, no drain, no
	// goodbye — then sweep every ordered pair so some queries must have
	// been owned by the corpse.
	reps[1].hs.CloseClientConnections()
	reps[1].hs.Close()

	nodes := []string{"a", "b", "c", "d"}
	for _, s := range nodes {
		for _, e := range nodes {
			if s == e {
				continue
			}
			rec := routerDo(h, http.MethodGet, "/explain?start="+s+"&end="+e, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("explain(%s,%s) = %d with 2/3 replicas up: %s", s, e, rec.Code, rec.Body.String())
			}
			if got := rec.Header().Get("X-Rex-Replica"); got == reps[1].name {
				t.Fatalf("explain(%s,%s) claims the dead replica answered", s, e)
			}
		}
	}
	if n := metricSum(t, rt, "rex_router_failovers_total"); n == 0 {
		t.Fatal("killing an owner caused no recorded failovers")
	}
}

func TestRouterForwards429Untouched(t *testing.T) {
	t.Cleanup(fail.Reset)
	// One replica with a single admission slot and no queueing: the
	// second concurrent query is shed, and the router must forward that
	// shed verbatim instead of hammering the failover chain.
	rep := bootReplica(t, "rex-shed", func(s *serve.Server) {
		s.SetAdmission(1, 1, 0)
	})
	rt, err := New(Config{
		Replicas:       []ReplicaConfig{{Name: rep.name, URL: rep.hs.URL}},
		HealthInterval: 15 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	h := rt.Handler()

	// Park one query inside the engine so it holds the admission slot.
	// The release is deferred too, so a failing assertion cannot strand
	// the parked handler and wedge the server's cleanup.
	release := make(chan struct{})
	released := false
	releaseParked := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer releaseParked()
	parked := make(chan struct{})
	fail.EnableFunc("explain.query", func() error {
		close(parked)
		<-release
		return nil
	})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- routerDo(h, http.MethodGet, "/explain?start=a&end=b", "") }()
	<-parked
	fail.Disable("explain.query") // only the parked query blocks

	rec := routerDo(h, http.MethodGet, "/explain?start=a&end=c", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 forwarded", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 || sec > 3 {
		t.Fatalf("Retry-After = %q, want the replica's jittered 1..3s", ra)
	}

	releaseParked()
	if first := <-done; first.Code != http.StatusOK {
		t.Fatalf("parked query = %d, want 200", first.Code)
	}
	// A shed is not a fault: the breaker must still admit immediately.
	after := routerDo(h, http.MethodGet, "/explain?start=a&end=d", "")
	if after.Code != http.StatusOK {
		t.Fatalf("post-shed query = %d, want 200 (breaker must not count 429s)", after.Code)
	}
}

func TestRouterHedgesAroundStalledReplica(t *testing.T) {
	rt, _ := bootCluster(t, 2, nil)
	h := rt.Handler()

	const q = "/explain?start=a&end=b&budget_ms=200"
	first := routerDo(h, http.MethodGet, q, "")
	if first.Code != http.StatusOK {
		t.Fatalf("warmup explain = %d", first.Code)
	}
	owner := first.Header().Get("X-Rex-Replica")

	fail.EnableStall("serve.respond@"+owner, 400*time.Millisecond)
	t0 := time.Now()
	rec := routerDo(h, http.MethodGet, q, "")
	elapsed := time.Since(t0)
	fail.Disable("serve.respond@" + owner)
	if rec.Code != http.StatusOK {
		t.Fatalf("hedged explain = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Rex-Replica"); got == owner {
		t.Fatalf("stalled owner %s still answered; hedge never won", owner)
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedged query took %v, should beat the 400ms stall", elapsed)
	}
	if n := metricSum(t, rt, `rex_router_hedges_total{outcome="won"}`); n == 0 {
		t.Fatal("no hedge recorded as won")
	}
}

func TestRouterUnhedgedEatsTheStall(t *testing.T) {
	// The control for the hedging test: same stall, hedging disabled —
	// the client waits out the full stall. Together the pair is the
	// hedged-vs-unhedged comparison.
	rt, _ := bootCluster(t, 2, func(c *Config) { c.DisableHedging = true })
	h := rt.Handler()

	const q = "/explain?start=a&end=b&budget_ms=200"
	first := routerDo(h, http.MethodGet, q, "")
	if first.Code != http.StatusOK {
		t.Fatalf("warmup explain = %d", first.Code)
	}
	owner := first.Header().Get("X-Rex-Replica")

	fail.EnableStall("serve.respond@"+owner, 150*time.Millisecond)
	t0 := time.Now()
	rec := routerDo(h, http.MethodGet, q, "")
	elapsed := time.Since(t0)
	fail.Disable("serve.respond@" + owner)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d", rec.Code)
	}
	if elapsed < 140*time.Millisecond {
		t.Fatalf("unhedged query finished in %v; expected to ride out the 150ms stall", elapsed)
	}
}

func TestRouterRejectsBelowFloorResponses(t *testing.T) {
	// The test sets the router's view of replica 1 by hand below; a
	// health probe landing before the request would reset it, so none
	// runs after the router's first sweep.
	rt, reps := bootCluster(t, 2, func(c *Config) {
		c.DisableHedging = true
		c.HealthInterval = time.Hour
	})
	h := rt.Handler()

	// Advance r0 one generation ahead behind the router's back.
	if _, err := reps[0].store.Apply(strings.NewReader(uniqueDelta(1))); err != nil {
		t.Fatal(err)
	}
	// Find a key the stale replica owns (pure ring order, no floor yet).
	var key string
	var pair [2]string
	nodes := []string{"a", "b", "c", "d"}
search:
	for _, s := range nodes {
		for _, e := range nodes {
			if s == e {
				continue
			}
			k := queryKey(s, e)
			if rt.ring.order(k)[0] == 1 {
				key, pair = k, [2]string{s, e}
				break search
			}
		}
	}
	if key == "" {
		t.Fatal("no ordered pair hashes to replica 1; fixture needs more keys")
	}

	// Simulate the race window: a client has seen generation 2, and the
	// router's health view still (wrongly) believes r1 carries it.
	rt.genFloor.lift(2)
	rt.replicas[1].liftGen(2)

	rec := routerDo(h, http.MethodGet, "/explain?start="+pair[0]+"&end="+pair[1], "")
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d: %s", rec.Code, rec.Body.String())
	}
	if g := generationOf(t, rec); g != 2 {
		t.Fatalf("generation = %d, want 2: a below-floor answer reached the client", g)
	}
	if got := rec.Header().Get("X-Rex-Replica"); got != reps[0].name {
		t.Fatalf("served by %s, want the fresh replica %s", got, reps[0].name)
	}
	if n := metricSum(t, rt, "rex_router_generation_rejects_total"); n == 0 {
		t.Fatal("no stale rejection recorded")
	}

	// Once the health view catches up (r1 known to be at generation 1,
	// floor at 2), the chain deprioritizes r1 before any request is sent.
	rt.replicas[1].knownGen.Store(1)
	if chain := rt.candidates(key); chain[0] != rt.replicas[0] {
		t.Fatalf("stale replica still leads its chain: %v", chain[0])
	}
}

func TestRouterBatchRepinsMixedGenerations(t *testing.T) {
	rt, reps := bootCluster(t, 2, func(c *Config) { c.DisableHedging = true })
	h := rt.Handler()

	// All ordered pairs: the scatter must touch both replicas.
	nodes := []string{"a", "b", "c", "d"}
	var pairs []string
	owners := map[int]bool{}
	for _, s := range nodes {
		for _, e := range nodes {
			if s == e {
				continue
			}
			pairs = append(pairs, fmt.Sprintf(`{"start":%q,"end":%q}`, s, e))
			owners[rt.ring.order(queryKey(s, e))[0]] = true
		}
	}
	if !owners[0] || !owners[1] {
		t.Fatal("all pairs hash to one replica; fixture needs more keys")
	}
	body := `{"pairs":[` + strings.Join(pairs, ",") + `]}`

	// r0 takes a delta behind the router's back, so a scattered batch
	// would answer half at generation 2 and half at 1.
	if _, err := reps[0].store.Apply(strings.NewReader(uniqueDelta(1))); err != nil {
		t.Fatal(err)
	}

	rec := routerDo(h, http.MethodPost, "/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results    []json.RawMessage `json:"results"`
		Generation uint64            `json:"generation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 2 {
		t.Fatalf("batch generation = %d, want the repinned 2", resp.Generation)
	}
	if len(resp.Results) != len(pairs) {
		t.Fatalf("batch returned %d results for %d pairs", len(resp.Results), len(pairs))
	}
	for i, r := range resp.Results {
		if len(r) == 0 || string(r) == "null" {
			t.Fatalf("result %d missing after repin", i)
		}
	}
	if n := metricSum(t, rt, "rex_router_batch_repins_total"); n == 0 {
		t.Fatal("mixed-generation gather did not record a repin")
	}
}

func TestRouterHonorsDrain(t *testing.T) {
	rt, reps := bootCluster(t, 2, nil)
	h := rt.Handler()

	reps[0].srv.StartDraining()
	deadline := time.Now().Add(2 * time.Second)
	for !rt.replicas[0].draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every query lands on the survivor; none race the draining process.
	nodes := []string{"a", "b", "c", "d"}
	for _, s := range nodes {
		for _, e := range nodes {
			if s == e {
				continue
			}
			rec := routerDo(h, http.MethodGet, "/explain?start="+s+"&end="+e, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("explain(%s,%s) = %d during drain", s, e, rec.Code)
			}
			if got := rec.Header().Get("X-Rex-Replica"); got != reps[1].name {
				t.Fatalf("explain(%s,%s) routed to draining %s", s, e, got)
			}
		}
	}

	// The tier healthz shows one routable replica and the drain flag.
	hz := routerDo(h, http.MethodGet, "/healthz", "")
	if hz.Code != http.StatusOK {
		t.Fatalf("healthz = %d", hz.Code)
	}
	var health routerHealth
	if err := json.Unmarshal(hz.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.RoutableCount != 1 {
		t.Fatalf("routable_count = %d, want 1", health.RoutableCount)
	}
	var sawDrain bool
	for _, r := range health.Replicas {
		if r.Name == reps[0].name && r.Draining {
			sawDrain = true
		}
	}
	if !sawDrain {
		t.Fatal("healthz does not report the draining replica")
	}

	// A broadcast during the drain acks on the shrunken barrier: the
	// draining replica refuses mutations (503) and is not counted.
	rec := routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(9))
	if rec.Code != http.StatusOK {
		t.Fatalf("broadcast during drain = %d: %s", rec.Code, rec.Body.String())
	}
	var resp deltaResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 1 || resp.Generation != 2 {
		t.Fatalf("applied=%d generation=%d, want 1 and 2", resp.Applied, resp.Generation)
	}
}

func TestRouterHealthzUnavailableWhenAllDown(t *testing.T) {
	rt, reps := bootCluster(t, 1, nil)
	h := rt.Handler()

	reps[0].hs.CloseClientConnections()
	reps[0].hs.Close()
	deadline := time.Now().Add(2 * time.Second)
	for rt.replicas[0].healthy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("router never noticed the dead replica")
		}
		time.Sleep(5 * time.Millisecond)
	}

	hz := routerDo(h, http.MethodGet, "/healthz", "")
	if hz.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with zero routable replicas, want 503", hz.Code)
	}
	rec := routerDo(h, http.MethodGet, "/explain?start=a&end=b", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("explain = %d with no replicas, want 503", rec.Code)
	}
}

func TestRouterMasksEnginePanics(t *testing.T) {
	rt, _ := bootCluster(t, 3, nil)
	h := rt.Handler()

	// The engine panics on the next few queries fleet-wide; the replica
	// converts each panic to a 500 and the router retries it away. The
	// budget (4) is below the worst-case attempt count of one request's
	// retry rounds, so every client request must eventually succeed.
	n := 0
	fail.EnableFunc("explain.query", func() error {
		if n++; n <= 4 {
			panic("injected engine panic")
		}
		return nil
	})
	defer fail.Reset()

	rec := routerDo(h, http.MethodGet, "/explain?start=a&end=b", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d while the engine panics: %s", rec.Code, rec.Body.String())
	}
}
