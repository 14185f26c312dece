package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rex"
)

func testServer(t *testing.T, timeout time.Duration) *Server {
	t.Helper()
	store, err := rex.NewStore(rex.SampleKB(), rex.Options{Measure: "size", TopK: 5, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return New(store, Config{Timeout: timeout, MaxBatch: 8})
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

func TestExplainEndpoint(t *testing.T) {
	h := testServer(t, time.Minute).Handler()
	rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || len(resp.Result.Explanations) == 0 {
		t.Fatalf("no explanations in %s", rec.Body)
	}
	if !strings.Contains(resp.Result.Explanations[0].Pattern, "spouse") {
		t.Errorf("top pattern = %q, want the spouse edge", resp.Result.Explanations[0].Pattern)
	}

	// POST body form.
	rec = post(t, h, "/explain", `{"start":"brad_pitt","end":"angelina_jolie"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status = %d, body %s", rec.Code, rec.Body)
	}
}

func TestExplainEndpointErrors(t *testing.T) {
	h := testServer(t, time.Minute).Handler()
	if rec := get(t, h, "/explain?start=brad_pitt"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing end: status = %d", rec.Code)
	}
	if rec := get(t, h, "/explain?start=brad_pitt&end=ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown entity: status = %d", rec.Code)
	}
	if rec := post(t, h, "/explain", "{nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON: status = %d", rec.Code)
	}
}

func TestExplainTimeout(t *testing.T) {
	h := testServer(t, time.Nanosecond).Handler()
	rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", rec.Code, rec.Body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	s := testServer(t, time.Minute)
	h := s.Handler()
	body := `{"pairs":[
		{"start":"brad_pitt","end":"angelina_jolie"},
		{"start":"ghost","end":"brad_pitt"},
		{"start":"kate_winslet","end":"leonardo_dicaprio"}]}`
	rec := post(t, h, "/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if got := rec.Header().Get(GenerationHeader); got != "1" {
		t.Errorf("%s = %q, want the body's generation 1", GenerationHeader, got)
	}
	if resp.Results[0].Result == nil || resp.Results[0].Error != "" {
		t.Errorf("pair 0 should succeed: %+v", resp.Results[0])
	}
	if resp.Results[1].Result != nil || !strings.Contains(resp.Results[1].Error, "unknown entity") {
		t.Errorf("pair 1 should fail with unknown entity: %+v", resp.Results[1])
	}
	if resp.Results[2].Result == nil {
		t.Errorf("pair 2 should succeed despite pair 1 failing: %+v", resp.Results[2])
	}
}

func TestBatchEndpointLimits(t *testing.T) {
	h := testServer(t, time.Minute).Handler() // maxBatch = 8
	if rec := post(t, h, "/batch", `{"pairs":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d", rec.Code)
	}
	pairs := make([]string, 9)
	for i := range pairs {
		pairs[i] = `{"start":"a","end":"b"}`
	}
	body := `{"pairs":[` + strings.Join(pairs, ",") + `]}`
	if rec := post(t, h, "/batch", body); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status = %d", rec.Code)
	}
	if rec := get(t, h, "/batch"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: status = %d", rec.Code)
	}
}

func TestStatsAndHealthz(t *testing.T) {
	s := testServer(t, time.Minute)
	h := s.Handler()
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var hr healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Generation != 1 || hr.Fingerprint == "" {
		t.Errorf("healthz = %+v, want ok/gen 1/non-empty fingerprint", hr)
	}

	// Two identical queries: the second must be served by the cache.
	get(t, h, "/explain?start=brad_pitt&end=angelina_jolie")
	get(t, h, "/explain?start=brad_pitt&end=angelina_jolie")

	rec = get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.KB.Nodes == 0 {
		t.Error("stats KB empty")
	}
	if st.Version.Generation != 1 || st.Version.Swaps != 0 || st.Version.Fingerprint != hr.Fingerprint {
		t.Errorf("version = %+v, want generation 1, 0 swaps, healthz fingerprint", st.Version)
	}
	if st.Queries.Explains != 2 {
		t.Errorf("explains = %d, want 2", st.Queries.Explains)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.Cache.Hits, st.Cache.Misses)
	}
}

// TestPprofEndpointsGated checks that the profiling endpoints exist only
// when -pprof is set: off by default (404), fully served when enabled.
func TestPprofEndpointsGated(t *testing.T) {
	srv := testServer(t, time.Second)
	if rec := get(t, srv.Handler(), "/debug/pprof/heap"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/heap = %d, want 404", rec.Code)
	}

	srv.pprof = true
	h := srv.Handler()
	if rec := get(t, h, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof index = %d, want 200", rec.Code)
	}
	rec := get(t, h, "/debug/pprof/heap")
	if rec.Code != http.StatusOK {
		t.Errorf("heap profile = %d, want 200", rec.Code)
	}
	// Enabling pprof must not shadow the query routes.
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz with pprof on = %d, want 200", rec.Code)
	}
}

// TestExplainBudgetKnobs drives the per-request anytime budget through
// both /explain forms and /batch: a deterministic one-expansion budget
// must answer 200 with truncated=true (never a 504), an invalid knob is
// a 400, and unbudgeted requests stay exhaustive.
func TestExplainBudgetKnobs(t *testing.T) {
	h := testServer(t, time.Minute).Handler()

	rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie&budget_expansions=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted GET status = %d, body %s", rec.Code, rec.Body)
	}
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated || resp.Result == nil || !resp.Result.Truncated {
		t.Fatalf("one-expansion budget not reported truncated: %s", rec.Body)
	}

	rec = post(t, h, "/explain", `{"start":"brad_pitt","end":"angelina_jolie","budget_expansions":1,"budget_ms":60000}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted POST status = %d, body %s", rec.Code, rec.Body)
	}
	resp = explainResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatalf("budgeted POST not reported truncated: %s", rec.Body)
	}

	// Unbudgeted requests remain exhaustive.
	rec = get(t, h, "/explain?start=brad_pitt&end=angelina_jolie")
	resp = explainResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Fatalf("unbudgeted request reported truncated: %s", rec.Body)
	}

	if rec := get(t, h, "/explain?start=a&end=b&budget_ms=nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid budget_ms: status = %d, want 400", rec.Code)
	}

	rec = post(t, h, "/batch", `{"pairs":[{"start":"brad_pitt","end":"angelina_jolie"},{"start":"tom_cruise","end":"nicole_kidman"}],"budget_expansions":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted batch status = %d, body %s", rec.Code, rec.Body)
	}
	var bresp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &bresp); err != nil {
		t.Fatal(err)
	}
	for i, e := range bresp.Results {
		if e.Error != "" {
			t.Fatalf("batch entry %d: %s", i, e.Error)
		}
		if !e.Truncated {
			t.Errorf("batch entry %d not truncated under a one-expansion budget", i)
		}
	}
}

// TestBudgetKnobsRejectNegative: a negative budget would silently mean
// "unbudgeted"; the API must reject it instead.
func TestBudgetKnobsRejectNegative(t *testing.T) {
	h := testServer(t, time.Minute).Handler()
	if rec := get(t, h, "/explain?start=a&end=b&budget_ms=-50"); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget_ms GET: status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/explain?start=a&end=b&budget_expansions=-1"); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget_expansions GET: status = %d, want 400", rec.Code)
	}
	if rec := post(t, h, "/explain", `{"start":"a","end":"b","budget_ms":-50}`); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget_ms POST: status = %d, want 400", rec.Code)
	}
	if rec := post(t, h, "/batch", `{"pairs":[{"start":"a","end":"b"}],"budget_expansions":-2}`); rec.Code != http.StatusBadRequest {
		t.Errorf("negative budget_expansions batch: status = %d, want 400", rec.Code)
	}
}

// TestBudgetMSRejectsOverflow: a budget_ms whose time.Duration would
// overflow is refused on every route, not wrapped — 18446744073710 ms
// would become a 448.384 µs budget and 9223372036855 ms a negative one,
// which the facade reads as unbudgeted. The largest that fits is
// accepted.
func TestBudgetMSRejectsOverflow(t *testing.T) {
	h := testServer(t, time.Minute).Handler()
	for _, ms := range []string{"18446744073710", "9223372036855"} {
		if rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie&budget_ms="+ms); rec.Code != http.StatusBadRequest {
			t.Errorf("budget_ms=%s GET: status = %d, want 400", ms, rec.Code)
		}
		if rec := post(t, h, "/explain", `{"start":"brad_pitt","end":"angelina_jolie","budget_ms":`+ms+`}`); rec.Code != http.StatusBadRequest {
			t.Errorf("budget_ms=%s POST: status = %d, want 400", ms, rec.Code)
		}
		if rec := post(t, h, "/batch", `{"pairs":[{"start":"brad_pitt","end":"angelina_jolie"}],"budget_ms":`+ms+`}`); rec.Code != http.StatusBadRequest {
			t.Errorf("budget_ms=%s batch: status = %d, want 400", ms, rec.Code)
		}
	}
	rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie&budget_ms=9223372036854")
	if rec.Code != http.StatusOK {
		t.Fatalf("budget_ms=9223372036854: status = %d, want 200: %s", rec.Code, rec.Body)
	}
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Errorf("budget_ms=9223372036854 truncated a sample-KB query")
	}
}
