package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rex"
	"rex/internal/serve"
)

// A 200 ack at a generation off the fleet's is a fork, not a success:
// the review scenario is a cold-restarted (wiped) replica whose
// knownGen is still stale-high, which applies the broadcast onto
// near-empty state and acks a tiny generation. The router must
// discount the ack, adopt the truthful generation, and quarantine the
// replica instead of counting it applied.
func TestDeltaBroadcastQuarantinesDivergentAck(t *testing.T) {
	real := bootReplica(t, "rex-real")
	// The fake replica plays the forked role deterministically: health
	// probes see a stale-high generation (so it is never pre-excluded
	// from fan-out), but every delta it receives is acked at the forked
	// generation 1 — the shape of a wiped store applying broadcasts.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/healthz":
			w.Write([]byte(`{"status":"ok","generation":100,"fingerprint":"forked"}`)) //nolint:errcheck
		case "/admin/delta":
			w.Write([]byte(`{"generation":1}`)) //nolint:errcheck
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	t.Cleanup(fake.Close)

	rt, err := New(Config{
		Replicas: []ReplicaConfig{
			{Name: "rex-real", URL: real.hs.URL},
			{Name: "rex-fake", URL: fake.URL},
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The checker stays parked (Start would leave one background probe
	// in flight, free to answer 100 after the divergent ack): Start's
	// synchronous sweep alone marks both replicas healthy, then only the
	// broadcast moves knownGen.
	rt.sweep()
	t.Cleanup(rt.Close)

	rec := routerDo(rt.Handler(), http.MethodPost, "/admin/delta", uniqueDelta(1))
	if rec.Code != http.StatusOK {
		t.Fatalf("broadcast = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Generation uint64 `json:"generation"`
		Applied    int    `json:"applied"`
		Replicas   []struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
			Error      string `json:"error"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("unparseable response: %v\n%s", err, rec.Body.String())
	}
	if resp.Applied != 1 || resp.Generation != 2 {
		t.Fatalf("applied=%d generation=%d, want 1 applied at generation 2", resp.Applied, resp.Generation)
	}
	var forkRow bool
	for _, row := range resp.Replicas {
		if row.Name == "rex-fake" {
			forkRow = true
			if !strings.Contains(row.Error, "diverged") {
				t.Fatalf("fake replica row error = %q, want a diverged report", row.Error)
			}
		}
	}
	if !forkRow {
		t.Fatal("no response row for the diverged replica")
	}
	if n := metricSum(t, rt, "rex_router_delta_diverged_acks_total"); n != 1 {
		t.Fatalf("diverged acks metric = %v, want 1", n)
	}
	if n := metricSum(t, rt, "rex_router_lagging_marks_total"); n < 1 {
		t.Fatalf("lagging marks metric = %v, want >= 1", n)
	}
	// The divergent ack must adopt the replica's truthful generation —
	// not lift knownGen to the acked value as a success would.
	if g := rt.replicas[1].knownGen.Load(); g != 1 {
		t.Fatalf("diverged replica knownGen = %d, want the adopted 1", g)
	}
}

// The router replays the last Authorization header on sync kicks, so
// it must only remember a header that a replica actually accepted —
// otherwise one request with a bad token poisons every future kick.
func TestRouterAdoptsOnlyAcceptedAuth(t *testing.T) {
	k, err := rex.ReadKB(strings.NewReader(clusterTSV))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{Measure: "size", TopK: 8, MaxPatternSize: 3, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(store, serve.Config{Timeout: 10 * time.Second, Name: "rex-gated", AdminToken: "s3cret"})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		store.Close()
	})

	rt, err := New(Config{
		Replicas:       []ReplicaConfig{{Name: "rex-gated", URL: hs.URL}},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)

	bad := httptest.NewRequest(http.MethodPost, "/admin/delta", strings.NewReader(uniqueDelta(1)))
	bad.Header.Set("Authorization", "Bearer wrong")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, bad)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("broadcast with wrong token = %d, want 401", rec.Code)
	}
	if rt.adminAuth.Load() != nil {
		t.Fatal("rejected Authorization header was stored")
	}

	good := httptest.NewRequest(http.MethodPost, "/admin/delta", strings.NewReader(uniqueDelta(2)))
	good.Header.Set("Authorization", "Bearer s3cret")
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, good)
	if rec.Code != http.StatusOK {
		t.Fatalf("broadcast with right token = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rt.adminAuth.Load(); got == nil || *got != "Bearer s3cret" {
		t.Fatalf("accepted Authorization header not stored (got %v)", got)
	}
}

// Generation numbers alone cannot tell a healed replica from one that
// forked at the fleet's generation; re-admission must also check that
// the replica's probed fingerprint does not contradict a trusted
// peer's at the same generation.
func TestForkSuspectBlocksReadmission(t *testing.T) {
	rt, err := New(Config{
		Replicas: []ReplicaConfig{
			{Name: "rex-good", URL: "http://127.0.0.1:1"},
			{Name: "rex-fork", URL: "http://127.0.0.1:2"},
		},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the test drives the state machine directly.
	good, fork := rt.replicas[0], rt.replicas[1]
	rt.genFloor.lift(5)
	good.healthy.Store(true)
	good.knownGen.Store(5)
	good.probed.Store(&probeInfo{gen: 5, fp: "AAA"})
	fork.healthy.Store(true)
	fork.knownGen.Store(5)
	fork.lagging.Store(true)
	fork.probed.Store(&probeInfo{gen: 5, fp: "BBB"})

	rt.reconcileLagging()
	if !fork.lagging.Load() {
		t.Fatal("forked replica re-admitted on generation alone despite a contradicting fingerprint")
	}
	for _, rp := range rt.candidates("some-key") {
		if rp == fork {
			t.Fatal("forked replica present in the failover chain")
		}
	}

	// Once the probe shows the fleet's fingerprint the fork is healed
	// and generation-based re-admission applies again.
	fork.probed.Store(&probeInfo{gen: 5, fp: "AAA"})
	rt.reconcileLagging()
	if fork.lagging.Load() {
		t.Fatal("healed replica not re-admitted")
	}
}
