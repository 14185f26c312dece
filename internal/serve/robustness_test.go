package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"rex"
	"rex/internal/fail"
	"rex/internal/httpjson"
)

// namedServer is liveServer plus an instance name, for the per-replica
// failpoint seams.
func namedServer(t *testing.T, name string) *Server {
	t.Helper()
	k, err := rex.ReadKB(strings.NewReader(liveBaseTSV))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{
		Measure: "size", TopK: 100, MaxPatternSize: 3, CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(store, Config{Timeout: time.Minute, MaxBatch: 8, Name: name})
}

func TestHealthzBodyCarriesDrainingFlag(t *testing.T) {
	srv := liveServer(t, "")
	h := srv.Handler()

	var resp healthResponse
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Draining {
		t.Error("healthy replica reports draining=true")
	}
	if resp.Generation == 0 || resp.Fingerprint == "" {
		t.Errorf("healthz missing generation/fingerprint: %+v", resp)
	}

	srv.StartDraining()
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Draining || resp.Status != "draining" {
		t.Errorf("draining healthz body = %+v, want draining=true status=draining", resp)
	}
	// The version info survives the flip: a router can still read which
	// generation the draining replica holds.
	if resp.Generation == 0 || resp.Fingerprint == "" {
		t.Errorf("draining healthz lost version info: %+v", resp)
	}
}

func TestRequestIDMintedAndEchoed(t *testing.T) {
	srv := liveServer(t, "")
	h := srv.Handler()

	// No inbound ID: the server mints one and echoes it.
	rec := get(t, h, "/explain?start=a&end=b&trace=1")
	minted := rec.Header().Get(httpjson.RequestIDHeader)
	if minted == "" {
		t.Fatal("response without X-Request-Id")
	}
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Trace == nil {
		t.Fatal("traced explain returned no trace")
	}
	if resp.Result.Trace.RequestID != minted {
		t.Errorf("trace request_id = %q, header = %q", resp.Result.Trace.RequestID, minted)
	}

	// An inbound ID (the router tier labelling a hedged attempt) is
	// adopted verbatim, so both tiers log the same identity.
	req := httptest.NewRequest(http.MethodGet, "/explain?start=a&end=b&trace=1", nil)
	req.Header.Set(httpjson.RequestIDHeader, "hedge-attempt-2")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(httpjson.RequestIDHeader); got != "hedge-attempt-2" {
		t.Errorf("echoed id = %q, want the inbound one", got)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Trace.RequestID != "hedge-attempt-2" {
		t.Errorf("trace request_id = %q, want hedge-attempt-2", resp.Result.Trace.RequestID)
	}

	// An overlong (attacker-shaped) ID is replaced, not propagated.
	req = httptest.NewRequest(http.MethodGet, "/explain?start=a&end=b", nil)
	req.Header.Set(httpjson.RequestIDHeader, strings.Repeat("x", 200))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(httpjson.RequestIDHeader); len(got) > 64 || strings.Contains(got, "xxx") {
		t.Errorf("overlong inbound id propagated: %q", got)
	}
}

func TestRequestIDReachesSlowLog(t *testing.T) {
	srv := liveServer(t, "")
	srv.SetSlowLog(0, 16, nil) // threshold 0: record every query
	h := srv.Handler()

	req := httptest.NewRequest(http.MethodGet, "/explain?start=a&end=b", nil)
	req.Header.Set(httpjson.RequestIDHeader, "slow-forensics-1")
	h.ServeHTTP(httptest.NewRecorder(), req)

	entries := srv.slow.Entries()
	if len(entries) == 0 {
		t.Fatal("slow log empty")
	}
	if entries[0].RequestID != "slow-forensics-1" {
		t.Errorf("slow entry request_id = %q, want slow-forensics-1", entries[0].RequestID)
	}
	// Batch pairs inherit the request's ID too.
	req = httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(`{"pairs":[{"start":"a","end":"b"}]}`))
	req.Header.Set(httpjson.RequestIDHeader, "batch-forensics-1")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if entries := srv.slow.Entries(); entries[0].RequestID != "batch-forensics-1" {
		t.Errorf("batch slow entry request_id = %q", entries[0].RequestID)
	}
}

// TestRetryAfterJitter draws the 429 hint many times: every value must
// stay inside the documented [1, 3] second bound, and the draws must
// not all collapse onto one value — the fix exists to decorrelate shed
// clients.
func TestRetryAfterJitter(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		v := retryAfter()
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > 3 {
			t.Fatalf("retryAfter() = %q, want an integer in [1,3]", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Errorf("200 draws yielded a single value %v — no jitter", seen)
	}
}

func TestAdminMutationsRefusedDuringDrain(t *testing.T) {
	srv := liveServer(t, "ignored.tsv")
	h := srv.Handler()
	gen := srv.store.Generation()
	srv.StartDraining()

	for _, path := range []string{"/admin/delta", "/admin/reload"} {
		rec := postBody(t, h, path, "edge\tc\td\tknows\n")
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s during drain = %d, want 503", path, rec.Code)
		}
	}
	if srv.store.Generation() != gen {
		t.Error("drained server still applied a mutation")
	}
	// Queries still answer: the drain bleeds routing, it doesn't cut
	// already-routed work.
	if _, code := explain(t, h, "a", "b"); code != http.StatusOK {
		t.Errorf("query during drain = %d, want 200", code)
	}
}

// TestInstanceScopedFailpoints proves the chaos lever the cluster tests
// rely on: arming "serve.respond@r1" faults exactly replica r1, and the
// unscoped "serve.respond" faults every replica.
func TestInstanceScopedFailpoints(t *testing.T) {
	defer fail.Reset()
	r1, r2 := namedServer(t, "r1"), namedServer(t, "r2")
	h1, h2 := r1.Handler(), r2.Handler()

	fail.Enable("serve.respond@r1")
	if rec := get(t, h1, "/explain?start=a&end=b"); rec.Code != http.StatusInternalServerError {
		t.Errorf("faulted replica answered %d, want 500", rec.Code)
	}
	if _, code := explain(t, h2, "a", "b"); code != http.StatusOK {
		t.Errorf("unfaulted replica answered %d, want 200", code)
	}
	// Health seam: the checker's view breaks while queries still work.
	fail.Reset()
	fail.Enable("serve.healthz@r1")
	if rec := get(t, h1, "/healthz"); rec.Code != http.StatusInternalServerError {
		t.Errorf("faulted healthz = %d, want 500", rec.Code)
	}
	if _, code := explain(t, h1, "a", "b"); code != http.StatusOK {
		t.Errorf("query on health-faulted replica = %d, want 200", code)
	}
	if rec := get(t, h2, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("unfaulted healthz = %d, want 200", rec.Code)
	}

	// The unscoped seam trips every instance, batch path included.
	fail.Reset()
	fail.Enable("serve.respond")
	for name, h := range map[string]http.Handler{"r1": h1, "r2": h2} {
		if rec := postBody(t, h, "/batch", `{"pairs":[{"start":"a","end":"b"}]}`); rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: unscoped seam /batch = %d, want 500", name, rec.Code)
		}
	}
}

// TestFailpointStall proves EnableStall delays without erroring — the
// hedging trigger.
func TestFailpointStall(t *testing.T) {
	defer fail.Reset()
	srv := namedServer(t, "r1")
	h := srv.Handler()
	const stall = 50 * time.Millisecond
	fail.EnableStall("serve.respond@r1", stall)
	t0 := time.Now()
	_, code := explain(t, h, "a", "b")
	if elapsed := time.Since(t0); elapsed < stall {
		t.Errorf("stalled query returned in %v, want >= %v", elapsed, stall)
	}
	if code != http.StatusOK {
		t.Errorf("stalled query = %d, want 200 (stall is not an error)", code)
	}
}
