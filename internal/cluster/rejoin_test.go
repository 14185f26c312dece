package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rex"
	"rex/internal/serve"
	rexsync "rex/internal/sync"
)

// Satellite check: a delta broadcast's response must report each failed
// or skipped replica's current generation — the caller sees the lag
// depth, not an anonymous zero — and the router must mark the straggler
// lagging and kick its sync engine.
func TestDeltaBroadcastReportsLaggingGeneration(t *testing.T) {
	rt, reps := bootCluster(t, 2, nil)
	h := rt.Handler()

	if rec := routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(1)); rec.Code != http.StatusOK {
		t.Fatalf("delta 1 = %d: %s", rec.Code, rec.Body.String())
	}

	// SIGKILL-equivalent on r1: connections die, the port goes dark.
	reps[1].hs.CloseClientConnections()
	reps[1].hs.Close()

	rec := routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(2))
	if rec.Code != http.StatusOK {
		t.Fatalf("delta 2 = %d: %s", rec.Code, rec.Body.String())
	}
	var resp deltaResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var row *deltaReplicaResult
	for i := range resp.Replicas {
		if resp.Replicas[i].Name == reps[1].name {
			row = &resp.Replicas[i]
		}
	}
	if row == nil || row.Error == "" {
		t.Fatalf("dead replica not reported as failed: %s", rec.Body.String())
	}
	if row.Generation != 2 {
		t.Fatalf("failed replica row generation = %d, want its last known 2", row.Generation)
	}

	// The next broadcast excludes the straggler outright (divergence
	// guard) and still names it, with its generation and a lagging error.
	rec = routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(3))
	if rec.Code != http.StatusOK {
		t.Fatalf("delta 3 = %d: %s", rec.Code, rec.Body.String())
	}
	resp = deltaResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	row = nil
	for i := range resp.Replicas {
		if resp.Replicas[i].Name == reps[1].name {
			row = &resp.Replicas[i]
		}
	}
	if row == nil || !strings.Contains(row.Error, "lagging") {
		t.Fatalf("skipped replica not reported as lagging: %s", rec.Body.String())
	}
	if row.Generation != 2 {
		t.Fatalf("skipped replica row generation = %d, want 2", row.Generation)
	}

	if got := metricSum(t, rt, "rex_router_replica_lagging"); got != 1 {
		t.Fatalf("rex_router_replica_lagging sum = %v, want 1", got)
	}
	if got := metricSum(t, rt, "rex_router_lagging_marks_total"); got < 1 {
		t.Fatalf("rex_router_lagging_marks_total = %v, want >= 1", got)
	}
}

// The re-admission gate: a lagging replica takes no queries until a
// probe shows it back at the floor, then rejoins with no operator (or
// router restart) involved.
func TestLaggingReplicaExcludedThenReadmitted(t *testing.T) {
	rt, reps := bootCluster(t, 2, nil)
	h := rt.Handler()
	if rec := routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(1)); rec.Code != http.StatusOK {
		t.Fatalf("delta = %d: %s", rec.Code, rec.Body.String())
	}

	// Simulate the router catching r1 below the floor (the replica's
	// store is actually current; only the router's view lags — the probe
	// will correct it, which is exactly the re-admission path).
	rp := rt.replicas[1]
	rp.knownGen.Store(1)
	rt.noteLagging(rp)

	// While marked lagging, every query lands on r0.
	for i := 0; i < 10; i++ {
		rec := routerDo(h, http.MethodGet, "/explain?start=a&end=b", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("explain = %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Rex-Replica"); got != reps[0].name {
			t.Fatalf("query %d served by %s while %s was the only non-lagging replica", i, got, reps[0].name)
		}
	}

	// The next health probe adopts the replica's true generation and
	// candidates() clears the flag — automatic re-admission.
	deadline := time.Now().Add(2 * time.Second)
	for rp.lagging.Load() || rp.knownGen.Load() < rt.GenFloor() {
		if time.Now().After(deadline) {
			t.Fatalf("replica never re-admitted: lagging=%v knownGen=%d floor=%d",
				rp.lagging.Load(), rp.knownGen.Load(), rt.GenFloor())
		}
		routerDo(h, http.MethodGet, "/explain?start=a&end=b", "")
		time.Sleep(5 * time.Millisecond)
	}
	if row := rp.status(); row.Lagging {
		t.Fatal("healthz row still shows lagging after re-admission")
	}
}

// The probe/ack race: a replica answers a probe at generation 1, then
// applies a delta whose ack reaches the router before the probe's answer
// does. The overtaken probe must not pull knownGen back under the ack —
// that dropped a current replica out of the next broadcast — while the
// next probe, sent after the ack, still adopts downward. Likewise a
// probe answered before the replica died must not undo the request
// path's down mark.
func TestOvertakenProbeOnlyRaises(t *testing.T) {
	answered := make(chan struct{}) // the replica has read its generation
	release := make(chan struct{})  // the answer may travel
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		answered <- struct{}{}
		<-release
		w.Write([]byte(`{"status":"ok","generation":1}`)) //nolint:errcheck
	}))
	defer hs.Close()
	rp := &replica{name: "r", baseURL: hs.URL}

	done := make(chan struct{})
	go func() {
		defer close(done)
		rp.checkHealth(context.Background(), hs.Client())
	}()
	<-answered
	rp.liftGen(2) // the delta ack overtakes the answer
	release <- struct{}{}
	<-done
	if g := rp.knownGen.Load(); g != 2 {
		t.Fatalf("knownGen = %d after an overtaken probe, want the ack's 2", g)
	}

	go func() { <-answered; release <- struct{}{} }()
	rp.checkHealth(context.Background(), hs.Client())
	if g := rp.knownGen.Load(); g != 1 {
		t.Fatalf("knownGen = %d after a probe nothing overtook, want the replica's 1", g)
	}
	if !rp.healthy.Load() {
		t.Fatal("a clean 200 probe left the replica unhealthy")
	}

	// Same ordering for liveness: the replica answers, dies, and the
	// request path's connect failure lands before the probe's 200 does.
	done = make(chan struct{})
	go func() {
		defer close(done)
		rp.checkHealth(context.Background(), hs.Client())
	}()
	<-answered
	rp.markDown()
	release <- struct{}{}
	<-done
	if rp.healthy.Load() {
		t.Fatal("an overtaken probe marked a replica healthy after the request path saw it die")
	}
}

// A cold restart regresses a replica's generation to 1. The router's
// knownGen must follow it DOWN (probes adopt, not merely lift), or the
// next broadcast would fork the replica's history at generation numbers
// the fleet already published.
func TestProbeAdoptsGenerationRegression(t *testing.T) {
	rt, _ := bootCluster(t, 2, nil)
	rp := rt.replicas[0]
	rp.liftGen(100)
	deadline := time.Now().Add(2 * time.Second)
	for rp.knownGen.Load() == 100 {
		if time.Now().After(deadline) {
			t.Fatal("probe never corrected the inflated knownGen")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if g := rp.knownGen.Load(); g != 1 {
		t.Fatalf("knownGen = %d after probe, want the replica's true 1", g)
	}
}

// rejoinReplica is one durable in-process rexserve with a sync engine,
// restartable on a fixed address — the unit the rejoin soak kills.
type rejoinReplica struct {
	name  string
	addr  string
	url   string
	peers []string

	store  *rex.Store
	engine *rexsync.Engine
	hs     *httptest.Server
}

// boot starts (or cold-restarts) the replica on l with a FRESH durable
// store over an empty data dir — the worst rejoin case: everything it
// knew is gone and catch-up starts from the seed.
func (r *rejoinReplica) boot(t *testing.T, l net.Listener) {
	t.Helper()
	k, err := rex.ReadKB(strings.NewReader(clusterTSV))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{
		Measure: "size", TopK: 8, MaxPatternSize: 3, CacheSize: 64,
		Durability: rex.DurabilityOptions{Dir: t.TempDir(), Fsync: "off", CheckpointEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(store, serve.Config{Timeout: 10 * time.Second, Name: r.name})
	engine, err := rexsync.New(store, rexsync.Config{
		Peers:          r.peers,
		Interval:       25 * time.Millisecond,
		Attempts:       3,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       50 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		SpoolDir:       t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetSync(engine, false)
	hs := &httptest.Server{Listener: l, Config: &http.Server{Handler: srv.Handler()}}
	hs.Start()
	engine.Start()
	r.store, r.engine, r.hs = store, engine, hs
	t.Cleanup(func() {
		engine.Stop()
		hs.Close()
		store.Close()
	})
}

// kill is the SIGKILL: engine stops, connections reset, port goes dark.
// The store is abandoned unflushed, like a dead process's heap.
func (r *rejoinReplica) kill() {
	r.engine.Stop()
	r.hs.CloseClientConnections()
	r.hs.Close()
}

// restartCold rebinds the fixed address and boots over an empty dir.
func (r *rejoinReplica) restartCold(t *testing.T) {
	t.Helper()
	var l net.Listener
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		l, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", r.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.boot(t, l)
}

// The tentpole proof: replicas are SIGKILLed and cold-restarted with
// empty data dirs under continuous query and delta traffic. With zero
// operator action every restarted replica must catch back up to the
// fleet's generation and fingerprint and be re-admitted to routing,
// and clients must see zero failures and no generation moving
// backwards throughout. Run with -race; skipped under -short.
func TestReplicaRejoinChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("rejoin soak skipped in -short mode")
	}

	// Bind all listeners first so every engine knows its peers up front.
	ls := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	reps := make([]*rejoinReplica, 3)
	rcs := make([]ReplicaConfig, 3)
	for i := range reps {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		reps[i] = &rejoinReplica{
			name: fmt.Sprintf("rejoin-r%d", i), addr: ls[i].Addr().String(), url: urls[i], peers: peers,
		}
		reps[i].boot(t, ls[i])
		rcs[i] = ReplicaConfig{Name: reps[i].name, URL: urls[i]}
	}
	rt, err := New(Config{
		Replicas:         rcs,
		HealthInterval:   15 * time.Millisecond,
		Retries:          3,
		RetryBase:        5 * time.Millisecond,
		RetryMax:         40 * time.Millisecond,
		HedgeMin:         5 * time.Millisecond,
		HedgeMax:         25 * time.Millisecond,
		BreakerBase:      10 * time.Millisecond,
		BreakerMax:       80 * time.Millisecond,
		SyncKickInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	h := rt.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var deltaSeq atomic.Int64
	var clients []*chaosClient
	spawn := func(name string, pace time.Duration, op func(c *chaosClient)) {
		c := &chaosClient{name: name}
		clients = append(clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				op(c)
				time.Sleep(pace)
			}
		}()
	}
	pairs := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "d"}}
	for i := 0; i < 2; i++ {
		i := i
		spawn(fmt.Sprintf("explain-%d", i), 2*time.Millisecond, func(c *chaosClient) {
			p := pairs[(c.ops+i)%len(pairs)]
			rec := routerDo(h, http.MethodGet, "/explain?start="+p[0]+"&end="+p[1], "")
			gen := uint64(0)
			if rec.Code == http.StatusOK {
				var env struct {
					Generation uint64 `json:"generation"`
				}
				json.Unmarshal(rec.Body.Bytes(), &env) //nolint:errcheck
				gen = env.Generation
			}
			c.observe(rec.Code, http.StatusOK, gen, rec.Body.String())
		})
	}
	spawn("delta", 10*time.Millisecond, func(c *chaosClient) {
		n := deltaSeq.Add(1)
		rec := routerDo(h, http.MethodPost, "/admin/delta", uniqueDelta(int(n)))
		gen := uint64(0)
		if rec.Code == http.StatusOK {
			var env struct {
				Generation uint64 `json:"generation"`
			}
			json.Unmarshal(rec.Body.Bytes(), &env) //nolint:errcheck
			gen = env.Generation
		}
		c.observe(rec.Code, http.StatusOK, gen, rec.Body.String())
	})

	// Kill two replicas in turn; each comes back empty and must rejoin
	// on its own.
	for round := 0; round < 2; round++ {
		victim := reps[round]
		time.Sleep(150 * time.Millisecond) // traffic establishes a floor
		victim.kill()
		time.Sleep(120 * time.Millisecond) // the fleet runs degraded; deltas keep flowing
		floorAtRestart := rt.GenFloor()
		victim.restartCold(t)
		waitForRejoin(t, rt, victim.name, floorAtRestart)
	}

	close(stop)
	wg.Wait()

	for _, c := range clients {
		for _, f := range c.failures {
			t.Error(f)
		}
		if c.ops < 10 {
			t.Errorf("%s made only %d requests", c.name, c.ops)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: the whole fleet converges to one generation and one
	// fingerprint (the anti-entropy loops mop up any straggler).
	deadline := time.Now().Add(10 * time.Second)
	for {
		s0, s1, s2 := reps[0].store.Current(), reps[1].store.Current(), reps[2].store.Current()
		if s0.Generation == s1.Generation && s1.Generation == s2.Generation &&
			s0.Fingerprint == s1.Fingerprint && s1.Fingerprint == s2.Fingerprint {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never converged: %d/%s %d/%s %d/%s",
				s0.Generation, s0.Fingerprint, s1.Generation, s1.Fingerprint, s2.Generation, s2.Fingerprint)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The healing was router-driven, not luck: kicks fired, marks
	// happened, and nothing is left marked lagging.
	if got := metricSum(t, rt, "rex_router_sync_kicks_total"); got < 1 {
		t.Errorf("rex_router_sync_kicks_total = %v, want >= 1", got)
	}
	if got := metricSum(t, rt, "rex_router_lagging_marks_total"); got < 1 {
		t.Errorf("rex_router_lagging_marks_total = %v, want >= 1", got)
	}
	// Re-admission is asynchronous (a reconcile tick plus a probe cycle
	// refreshing the fingerprint evidence), so poll: every lagging mark
	// must clear shortly after convergence, with no query traffic to
	// help it along.
	deadline = time.Now().Add(5 * time.Second)
	for {
		hz := routerDo(h, http.MethodGet, "/healthz", "")
		var health routerHealth
		if err := json.Unmarshal(hz.Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		stillLagging := ""
		for _, row := range health.Replicas {
			if row.Lagging {
				stillLagging = row.Name
			}
		}
		if stillLagging == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still marked lagging after convergence", stillLagging)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitForRejoin polls the router's health view until the named replica
// is healthy, cleared of its lagging mark, and at or above the floor
// observed when it restarted — the automatic re-admission contract.
func waitForRejoin(t *testing.T, rt *Router, name string, floor uint64) {
	t.Helper()
	h := rt.Handler()
	deadline := time.Now().Add(15 * time.Second)
	for {
		rec := routerDo(h, http.MethodGet, "/healthz", "")
		var health routerHealth
		if err := json.Unmarshal(rec.Body.Bytes(), &health); err == nil {
			for _, row := range health.Replicas {
				if row.Name == name && row.Healthy && !row.Lagging && row.Generation >= floor {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never rejoined at floor %d: %s", name, floor, rec.Body.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
