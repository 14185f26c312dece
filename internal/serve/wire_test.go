package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"rex"
)

// explainResponse is the shape of a 200 /explain body, and encoded by
// writeJSON it is the reference writeExplain must match byte for byte.
// Generation and Fingerprint identify the snapshot that computed the
// result; Truncated mirrors Result.Truncated.
type explainResponse struct {
	Result      *rex.Result `json:"result"`
	Truncated   bool        `json:"truncated"`
	Generation  uint64      `json:"generation"`
	Fingerprint string      `json:"fingerprint"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

// reflected is resp as the reflective encoder writes it.
func reflected(resp explainResponse) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// TestWriteExplainMatchesEncoder: the hand-assembled /explain body is
// the reflective encoder's, byte for byte, for every kind of result and
// every scalar the envelope can carry.
func TestWriteExplainMatchesEncoder(t *testing.T) {
	s := liveServer(t, "")
	ex := s.store.Current().Explainer
	query := func(start, end string, b rex.Budget) *rex.Result {
		t.Helper()
		res, err := ex.ExplainBudgeted(rex.WithTrace(context.Background()), start, end, b)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	untraced := func(r *rex.Result) *rex.Result {
		cp := *r
		cp.Trace = nil
		return &cp
	}
	miss := query("a", "b", rex.Budget{})
	hit := query("a", "b", rex.Budget{})
	if miss.Trace.CacheHit || !hit.Trace.CacheHit {
		t.Fatalf("cache_hit on first and second query = %v, %v", miss.Trace.CacheHit, hit.Trace.CacheHit)
	}
	empty := query("c", "d", rex.Budget{})
	if empty.Explanations != nil {
		t.Fatalf("(c, d) has explanations: %+v", empty.Explanations)
	}
	truncated := query("a", "b", rex.Budget{MaxExpansions: 1})
	if !truncated.Truncated {
		t.Fatal("a one-expansion budget did not truncate")
	}
	const hostile = "q\"\\ <&> \u2028\xff\x01é"
	escaped := &rex.Result{Start: hostile, End: hostile, Measure: hostile, Explanations: []rex.Explanation{{
		Pattern: hostile, Description: hostile, SQL: hostile, Score: []float64{1e21, 1e-7, -0.5},
		Instances: []rex.Instance{{Bindings: []string{hostile, ""}}, {}}, Decorations: []string{hostile},
	}}}

	for _, tc := range []struct {
		name        string
		res         *rex.Result
		generation  uint64
		fingerprint string
		elapsed     time.Duration
	}{
		{"miss", untraced(miss), 1, "00f1e2d3c4b5a697", 1234567 * time.Microsecond},
		{"hit", untraced(hit), 1, "00f1e2d3c4b5a697", time.Microsecond},
		{"hit, elapsed 0", untraced(hit), 1, "00f1e2d3c4b5a697", 0},
		{"hit, sub-microsecond elapsed", untraced(hit), 1, "00f1e2d3c4b5a697", 999 * time.Nanosecond},
		{"miss, trace=1", miss, 2, "00f1e2d3c4b5a697", 1500 * time.Microsecond},
		{"hit, trace=1", hit, 1 << 63, "", 42 * time.Microsecond},
		{"truncated", untraced(truncated), 3, "ffffffffffffffff", time.Hour},
		{"truncated, trace=1", truncated, 3, "ffffffffffffffff", time.Millisecond},
		{"no explanations", untraced(empty), 1, "0", 10 * time.Microsecond},
		{"escapes", escaped, 7, hostile, 10 * time.Microsecond},
	} {
		rec := httptest.NewRecorder()
		writeExplain(rec, tc.res, tc.generation, tc.fingerprint, tc.elapsed)
		want := reflected(explainResponse{
			Result: tc.res, Truncated: tc.res.Truncated, Generation: tc.generation,
			Fingerprint: tc.fingerprint, ElapsedMS: float64(tc.elapsed.Microseconds()) / 1000,
		})
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: writeExplain wrote\n%s\nthe encoder writes\n%s", tc.name, rec.Body, want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length = %q for %d bytes", tc.name, got, len(want))
		}
		if got := rec.Header().Get(GenerationHeader); got != strconv.FormatUint(tc.generation, 10) {
			t.Errorf("%s: %s = %q, want %d", tc.name, GenerationHeader, got, tc.generation)
		}
	}

	// Through the handler the elapsed time is not the test's to choose,
	// so decode what was served and require that the encoder writes those
	// values back as the same bytes.
	h := s.Handler()
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodGet, "/explain?start=a&end=b", ""},
		{http.MethodGet, "/explain?start=a&end=b&trace=1", ""},
		{http.MethodGet, "/explain?start=a&end=b&budget_expansions=1&trace=1", ""},
		{http.MethodGet, "/explain?start=c&end=d", ""},
		{http.MethodPost, "/explain", `{"start":"a","end":"b"}`},
		{http.MethodPost, "/explain", `{"start":"b","end":"a","trace":true}`},
	} {
		rec := get(t, h, tc.target)
		if tc.method == http.MethodPost {
			rec = post(t, h, tc.target, tc.body)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s %s: status %d, body %s", tc.method, tc.target, tc.body, rec.Code, rec.Body)
		}
		var resp explainResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s %s %s: %v in %s", tc.method, tc.target, tc.body, err, rec.Body)
		}
		if want := reflected(resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s %s %s: served\n%s\nthe encoder writes\n%s", tc.method, tc.target, tc.body, rec.Body, want)
		}
	}
}

// resultBytes cuts the "result" value out of an /explain body: the part
// that is a function of the cached result alone.
func resultBytes(t *testing.T, body []byte) []byte {
	t.Helper()
	const open = "{\n  \"result\": "
	end := bytes.LastIndex(body, []byte(",\n  \"truncated\": "))
	if !bytes.HasPrefix(body, []byte(open)) || end < 0 {
		t.Fatalf("not an /explain body: %s", body)
	}
	return body[len(open):end]
}

// TestFirstHitsShareOneEncoding takes the first HTTP hit of one cached
// result on 16 goroutines at once — under -race, the check that the
// encoding is built behind its Once and the cached result is only ever
// read — and requires every body to carry the same result bytes; then
// one delta later the carried entry must serve those bytes again under
// the new generation and fingerprint.
func TestFirstHitsShareOneEncoding(t *testing.T) {
	s := liveServer(t, "")
	h := s.Handler()
	// A library caller fills the cache and builds no encoding.
	cached, err := s.store.Current().Explainer.Explain("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(cached, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	bodies := make([][]byte, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/explain?start=a&end=b", nil))
			if rec.Code == http.StatusOK {
				bodies[i] = rec.Body.Bytes()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, body := range bodies {
		if body == nil {
			t.Fatalf("client %d: no 200", i)
		}
		if got := resultBytes(t, body); !bytes.Equal(got, want) {
			t.Fatalf("client %d: result bytes\n%s\nwant\n%s", i, got, want)
		}
	}
	if st := stats(t, h); st.Cache.Hits != clients || st.Cache.Misses != 1 {
		t.Fatalf("cache after %d first hits = %+v", clients, st.Cache)
	}

	before, _ := explain(t, h, "a", "b")
	if rec := postBody(t, h, "/admin/delta", "edge\tc\td\tknows\n"); rec.Code != http.StatusOK {
		t.Fatalf("delta: status %d, body %s", rec.Code, rec.Body)
	}
	if st := stats(t, h); st.Live.ResultsCarried != 1 {
		t.Fatalf("carry-over after the delta = %+v, want the (a, b) entry carried", st.Live)
	}
	rec := get(t, h, "/explain?start=a&end=b")
	var after explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Generation != 2 || after.Fingerprint == before.Fingerprint || rec.Header().Get(GenerationHeader) != "2" {
		t.Errorf("carried hit: generation %d, %s %q, fingerprint %s (was %s); want generation 2 and a new fingerprint",
			after.Generation, GenerationHeader, rec.Header().Get(GenerationHeader), after.Fingerprint, before.Fingerprint)
	}
	if got := resultBytes(t, rec.Body.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("carried hit: result bytes\n%s\nwant\n%s", got, want)
	}
	if st := stats(t, h); st.Cache.Hits != 1 || st.Cache.Misses != 0 {
		t.Errorf("generation 2's cache after one query = %+v, want the carried entry hit", st.Cache)
	}
}
