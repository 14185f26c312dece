package serve

// Tests for the observability layer: the /metrics exposition, the
// trace=1 response block, the slow-query forensics ring at /admin/slow,
// budget-truncated /batch responses, and a -race soak scraping /metrics
// during live delta ingestion.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	return rec.Body.String()
}

// metricFamilies parses the `# TYPE name type` lines of an exposition.
func metricFamilies(body string) map[string]string {
	fams := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, typ, ok := strings.Cut(f, " "); ok {
				fams[name] = typ
			}
		}
	}
	return fams
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t, time.Minute)
	h := s.Handler()

	// Traffic first, so the trace-fold counters have something to show.
	if rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie"); rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d", rec.Code)
	}
	if rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie"); rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d", rec.Code)
	}
	if rec := get(t, h, "/explain?start=nobody&end=brad_pitt"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown-entity explain status = %d", rec.Code)
	}

	body := scrape(t, h)
	fams := metricFamilies(body)
	if len(fams) < 12 {
		t.Errorf("/metrics exposes %d families, want >= 12:\n%v", len(fams), fams)
	}
	wantType := map[string]string{
		"rex_build_info":                    "gauge",
		"rex_uptime_seconds":                "gauge",
		"rex_http_requests_total":           "counter",
		"rex_http_request_duration_seconds": "histogram",
		"rex_query_stage_duration_seconds":  "histogram",
		"rex_queries_total":                 "counter",
		"rex_query_truncated_total":         "counter",
		"rex_queries_inflight":              "gauge",
		"rex_result_cache_hits_total":       "counter",
		"rex_result_cache_misses_total":     "counter",
		"rex_result_cache_entries":          "gauge",
		"rex_overlay_depth":                 "gauge",
		"rex_store_swaps_total":             "counter",
		"rex_store_compactions_total":       "counter",
		"rex_deltas_applied_total":          "counter",
		"rex_reloads_total":                 "counter",
		"rex_swap_duration_seconds":         "histogram",
		"rex_kb_nodes":                      "gauge",
		"rex_kb_edges":                      "gauge",
		"rex_slow_queries_total":            "counter",
	}
	for name, typ := range wantType {
		if got := fams[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}
	for name := range fams {
		if strings.HasPrefix(name, "rex_evaluator_memo") {
			t.Errorf("family %s exposed: the measures keep no memo", name)
		}
	}

	// Spot-check folded values: one cold query + one cache hit + one
	// error, each visible on the right counter series.
	for _, want := range []string{
		`rex_http_requests_total{endpoint="/explain",code="200"} 2`,
		`rex_http_requests_total{endpoint="/explain",code="404"} 1`,
		`rex_queries_total{outcome="ok"} 2`,
		`rex_queries_total{outcome="error"} 1`,
		`rex_result_cache_hits_total 1`,
		`rex_result_cache_misses_total 1`,
		`rex_query_stage_duration_seconds_bucket{stage="enumerate",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, `go_version="go`) {
		t.Errorf("rex_build_info has no go_version label:\n%.300s", body)
	}
}

// TestStatsQueriesMatchMetrics asks ok, unknown-entity and timed-out
// queries, alone and as batch pairs, and requires /stats' query
// counters to be what rex_queries_total{outcome} counts: explains are
// every outcome, errors are error and timeout, timeouts are timeout.
func TestStatsQueriesMatchMetrics(t *testing.T) {
	s := testServer(t, time.Minute)
	h := s.Handler()
	ask := func(path string, code int) {
		t.Helper()
		if rec := get(t, h, path); rec.Code != code {
			t.Fatalf("%s: status %d, want %d", path, rec.Code, code)
		}
	}
	batch := func(body string) {
		t.Helper()
		if rec := post(t, h, "/batch", body); rec.Code != http.StatusOK {
			t.Fatalf("/batch: status %d, body %s", rec.Code, rec.Body)
		}
	}
	ask("/explain?start=brad_pitt&end=angelina_jolie", http.StatusOK)
	ask("/explain?start=brad_pitt&end=angelina_jolie", http.StatusOK) // a cache hit
	ask("/explain?start=nobody&end=brad_pitt", http.StatusNotFound)
	batch(`{"pairs":[{"start":"kate_winslet","end":"leonardo_dicaprio"},{"start":"ghost","end":"brad_pitt"}]}`)
	s.timeout = time.Nanosecond
	ask("/explain?start=tom_cruise&end=nicole_kidman", http.StatusGatewayTimeout)
	batch(`{"pairs":[{"start":"george_clooney","end":"brad_pitt"},{"start":"kate_winslet","end":"tom_cruise"}]}`)

	rec := get(t, h, "/stats")
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]uint64{}
	for _, line := range strings.Split(scrape(t, h), "\n") {
		var outcome string
		var v uint64
		if n, _ := fmt.Sscanf(line, "rex_queries_total{outcome=%q} %d", &outcome, &v); n == 2 {
			outcomes[outcome] = v
		}
	}
	want := queryStats{
		Explains: outcomes["ok"] + outcomes["error"] + outcomes["timeout"],
		Errors:   outcomes["error"] + outcomes["timeout"],
		Timeouts: outcomes["timeout"],
	}
	if st.Queries != want || want.Explains != 8 || outcomes["ok"] != 3 || outcomes["error"] != 2 || outcomes["timeout"] != 3 {
		t.Errorf("/stats queries %+v, /metrics outcomes %v; want them to agree on 3 ok, 2 error and 3 timeout", st.Queries, outcomes)
	}
}

func TestExplainTraceBlock(t *testing.T) {
	h := testServer(t, time.Minute).Handler()

	rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie")
	var resp explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Trace != nil {
		t.Error("untraced /explain response carries a trace block")
	}

	rec = get(t, h, "/explain?start=brad_pitt&end=angelina_jolie&trace=1")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	tr := resp.Result.Trace
	if tr == nil {
		t.Fatal("trace=1 /explain response has no trace block")
	}
	// The first query warmed the cache, so this trace is a cache hit.
	if !tr.CacheHit {
		t.Errorf("repeat query trace = %+v, want CacheHit", tr)
	}

	rec = post(t, h, "/explain", `{"start":"tom_cruise","end":"nicole_kidman","trace":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.Trace == nil || resp.Result.Trace.TotalMS <= 0 {
		t.Fatalf("traced POST /explain trace = %+v", resp.Result.Trace)
	}
	found := false
	for _, st := range resp.Result.Trace.Stages {
		if st.Stage == "enumerate" {
			found = true
		}
	}
	if !found {
		t.Errorf("cold traced query has no enumerate stage: %+v", resp.Result.Trace.Stages)
	}
}

// TestBatchBudgetTruncation is the satellite coverage for budgeted
// /batch responses: a default budget that has already expired truncates
// every pair at the path search with well-formed partial results, and a
// wall-clock budget that may expire mid-batch still yields a well-formed
// entry per pair with the truncated flag mirroring the result.
func TestBatchBudgetTruncation(t *testing.T) {
	h := expiredBudgetServer(t).Handler()
	pairsJSON := `[{"start":"brad_pitt","end":"angelina_jolie"},` +
		`{"start":"kate_winslet","end":"leonardo_dicaprio"},` +
		`{"start":"tom_cruise","end":"nicole_kidman"}]`

	rec := post(t, h, "/batch", `{"pairs":`+pairsJSON+`,"trace":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for i, e := range resp.Results {
		if e.Error != "" {
			t.Fatalf("entry %d: unexpected error %q", i, e.Error)
		}
		if e.Result == nil {
			t.Fatalf("entry %d: no result", i)
		}
		if !e.Truncated || !e.Result.Truncated {
			t.Errorf("entry %d: truncated = (%v, %v), want true under an expired budget",
				i, e.Truncated, e.Result.Truncated)
		}
		if e.Result.Start == "" || e.Result.End == "" {
			t.Errorf("entry %d: partial result missing pair identity: %+v", i, e.Result)
		}
		if e.Result.Trace == nil {
			t.Fatalf("entry %d: traced batch has no trace block", i)
		}
		if got := e.Result.Trace.TruncatedBy; got != "enumerate:deadline" {
			t.Errorf("entry %d: TruncatedBy = %q, want enumerate:deadline", i, got)
		}
	}

	// Wall-clock budget: expiry is timing-dependent, so assert only
	// well-formedness — every entry answers, truncation mirrors the
	// result, and no trace blocks leak without the trace flag.
	rec = post(t, h, "/batch", `{"pairs":`+pairsJSON+`,"budget_ms":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("budget_ms batch status = %d: %s", rec.Code, rec.Body)
	}
	resp = batchResponse{} // omitempty fields must not inherit the first decode
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for i, e := range resp.Results {
		if e.Error != "" {
			t.Fatalf("entry %d: budgeted pair errored (%q); budgets must truncate, not fail", i, e.Error)
		}
		if e.Result == nil {
			t.Fatalf("entry %d: no result", i)
		}
		if e.Truncated != e.Result.Truncated {
			t.Errorf("entry %d: entry truncated %v != result truncated %v", i, e.Truncated, e.Result.Truncated)
		}
		if e.Result.Trace != nil {
			t.Errorf("entry %d: trace block without trace flag", i)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	s := expiredBudgetServer(t)
	s.adminToken = "hush"
	s.SetSlowLog(0, 16, nil) // threshold 0: record every query
	h := s.Handler()

	if rec := get(t, h, "/admin/slow"); rec.Code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /admin/slow status = %d", rec.Code)
	}

	if rec := get(t, h, "/explain?start=brad_pitt&end=angelina_jolie"); rec.Code != http.StatusOK {
		t.Fatalf("explain status = %d", rec.Code)
	}
	if rec := get(t, h, "/explain?start=nobody&end=brad_pitt"); rec.Code != http.StatusNotFound {
		t.Fatalf("error explain status = %d", rec.Code)
	}

	req := httptest.NewRequest(http.MethodGet, "/admin/slow", nil)
	req.Header.Set("Authorization", "Bearer hush")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/slow status = %d: %s", rec.Code, rec.Body)
	}
	var resp slowResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 2 || len(resp.Entries) != 2 {
		t.Fatalf("slow log total=%d entries=%d, want 2 and 2", resp.Total, len(resp.Entries))
	}
	// Newest first: the failed lookup, then the truncated query.
	bad, good := resp.Entries[0], resp.Entries[1]
	if bad.Start != "nobody" || bad.Error == "" {
		t.Errorf("newest entry = %+v, want the failed nobody query", bad)
	}
	if good.Start != "brad_pitt" || good.End != "angelina_jolie" {
		t.Errorf("older entry = %+v, want the brad_pitt query", good)
	}
	if !good.Truncated {
		t.Errorf("budgeted entry = %+v, want truncated", good)
	}
	if good.Trace == nil || good.Trace.TruncatedBy != "enumerate:deadline" {
		t.Errorf("budgeted entry trace = %+v, want enumerate:deadline attribution", good.Trace)
	}
	if good.ElapsedMS < 0 || good.Time == "" {
		t.Errorf("entry missing timing: %+v", good)
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	h := testServer(t, time.Minute).Handler()
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var resp healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || !strings.HasPrefix(resp.GoVersion, "go") || resp.Revision == "" {
		t.Errorf("healthz = %+v, want ok with build info", resp)
	}
}

// TestMetricsScrapeUnderIngestion is the observability soak: concurrent
// /metrics and /admin/slow scrapes while deltas hot-swap the store
// under /explain traffic. Run with -race it checks that scrape-time
// gauge sampling (cache stats, overlay depth) is safe
// against live swaps; its own assertions check every scrape parses and
// the swap counters land.
func TestMetricsScrapeUnderIngestion(t *testing.T) {
	if testing.Short() {
		t.Skip("soak generates a preset KB and streams deltas; skip under -short")
	}
	genOpt, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(genOpt)
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	store, err := rex.OpenStore(path, rex.Options{TopK: 10, MaxPatternSize: 3, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, Config{KBPath: path, Timeout: time.Minute, MaxBatch: 8})
	s.SetSlowLog(0, 64, nil) // record everything: exercises ring writes under load
	h := s.Handler()

	sampled := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 2, Seed: 43})
	if len(sampled) == 0 {
		t.Fatal("no pairs sampled")
	}

	const numDeltas = 12
	var (
		wg      sync.WaitGroup
		done    atomic.Bool
		workErr = make([]error, 3)
	)
	// Reader: /explain traffic, alternating traced and untraced.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			p := sampled[i%len(sampled)]
			url := "/explain?start=" + g.NodeName(p.Start) + "&end=" + g.NodeName(p.End)
			if i%2 == 0 {
				url += "&trace=1"
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				workErr[0] = fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
				return
			}
		}
	}()
	// Scraper: /metrics must stay parseable through every swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				workErr[1] = fmt.Errorf("/metrics status %d", rec.Code)
				return
			}
			if fams := metricFamilies(rec.Body.String()); len(fams) < 12 {
				workErr[1] = fmt.Errorf("scrape shrank to %d families", len(fams))
				return
			}
		}
	}()
	// Forensics reader: /admin/slow under concurrent ring writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/slow", nil))
			if rec.Code != http.StatusOK {
				workErr[2] = fmt.Errorf("/admin/slow status %d", rec.Code)
				return
			}
			var sr slowResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
				workErr[2] = fmt.Errorf("/admin/slow parse: %v", err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	for i := 0; i < numDeltas; i++ {
		sb.Reset()
		if i == 0 {
			sb.WriteString("label\tsoak\tU\n")
		}
		prev := g.NodeName(kb.NodeID(rng.Intn(g.NumNodes())))
		for j := 0; j < 10; j++ {
			name := fmt.Sprintf("soak_%d_%d", i, j)
			fmt.Fprintf(&sb, "node\t%s\tconcept\n", name)
			fmt.Fprintf(&sb, "edge\t%s\t%s\tsoak\n", prev, name)
			prev = name
		}
		if rec := postBody(t, h, "/admin/delta", sb.String()); rec.Code != http.StatusOK {
			t.Fatalf("delta %d: status %d, body %s", i, rec.Code, rec.Body)
		}
	}
	// The last delta again is a no-op: an applied request that publishes
	// nothing, so it observes no swap duration.
	if rec := postBody(t, h, "/admin/delta", sb.String()); rec.Code != http.StatusOK {
		t.Fatalf("repeated delta: status %d, body %s", rec.Code, rec.Body)
	}
	done.Store(true)
	wg.Wait()
	for i, err := range workErr {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	body := scrape(t, h)
	for _, want := range []string{
		fmt.Sprintf("rex_deltas_applied_total %d", numDeltas+1),
		fmt.Sprintf("rex_store_swaps_total %d", numDeltas),
		fmt.Sprintf("rex_swap_duration_seconds_count %d", numDeltas),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("post-soak /metrics missing %q", want)
		}
	}
}
