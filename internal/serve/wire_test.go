package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rex"
)

// explainResponse is the shape of a 200 /explain body, and encoded by
// json.NewEncoder it is the reference writeExplain must match byte for
// byte. Generation and Fingerprint identify the snapshot that computed
// the result; Truncated mirrors Result.Truncated.
type explainResponse struct {
	Result      *rex.Result `json:"result"`
	Truncated   bool        `json:"truncated"`
	Generation  uint64      `json:"generation"`
	Fingerprint string      `json:"fingerprint"`
	ElapsedMS   float64     `json:"elapsed_ms"`
}

// batchResponse is the shape of a 200 /batch body and, the same way,
// the reference for writeBatch: one entry per requested pair, in
// request order, each carrying either a result or that pair's error.
type batchResponse struct {
	Results     []batchEntry `json:"results"`
	Generation  uint64       `json:"generation"`
	Fingerprint string       `json:"fingerprint"`
	ElapsedMS   float64      `json:"elapsed_ms"`
}

type batchEntry struct {
	Start     string      `json:"start"`
	End       string      `json:"end"`
	Result    *rex.Result `json:"result,omitempty"`
	Truncated bool        `json:"truncated,omitempty"`
	Error     string      `json:"error,omitempty"`
}

// reflected is v as the reflective encoder writes it.
func reflected(v any) []byte {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v) //nolint:errcheck // the test values always encode
	return buf.Bytes()
}

// TestWriteExplainMatchesEncoder: the hand-assembled /explain body is
// the reflective encoder's, byte for byte, for every kind of result and
// every scalar the envelope can carry.
func TestWriteExplainMatchesEncoder(t *testing.T) {
	s := liveServer(t, "")
	ex := s.store.Current().Explainer
	query := func(start, end string, r rex.Request) *rex.Result {
		t.Helper()
		r.Pair = rex.Pair{Start: start, End: end}
		res, err := ex.Query(rex.WithTrace(context.Background()), r)
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
	miss := query("a", "b", rex.Request{})
	hit := query("a", "b", rex.Request{})
	if miss.Trace.CacheHit || !hit.Trace.CacheHit {
		t.Fatalf("cache_hit on first and second query = %v, %v", miss.Trace.CacheHit, hit.Trace.CacheHit)
	}
	empty := query("c", "d", rex.Request{})
	if empty.Explanations != nil {
		t.Fatalf("(c, d) has explanations: %+v", empty.Explanations)
	}
	withSQL := query("a", "b", rex.Request{SQL: true})
	if len(withSQL.Explanations) == 0 || withSQL.Explanations[0].SQL == "" {
		t.Fatalf("(a, b) with sql=1 has no SQL: %+v", withSQL.Explanations)
	}
	// (b, a) has not been asked: (a, b)'s cached answer would serve a
	// budgeted query of the pair too.
	truncated := query("b", "a", rex.Request{Budget: rex.Budget{Timeout: time.Nanosecond}})
	if !truncated.Truncated {
		t.Fatal("an expired budget did not truncate")
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
		{"sql=1", untraced(withSQL), 4, "00f1e2d3c4b5a697", 3 * time.Microsecond},
		{"sql=1, trace=1", withSQL, 4, "00f1e2d3c4b5a697", 3 * time.Microsecond},
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
		{http.MethodGet, "/explain?start=a&end=b&budget_ms=1&trace=1", ""},
		{http.MethodGet, "/explain?start=c&end=d", ""},
		{http.MethodGet, "/explain?start=a&end=b&sql=1", ""},
		{http.MethodGet, "/explain?start=a&end=b&sql=1&trace=1", ""},
		{http.MethodPost, "/explain", `{"start":"a","end":"b","sql":true,"trace":true}`},
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
	const open = `{"result":`
	end := bytes.LastIndex(body, []byte(`,"truncated":`))
	if !bytes.HasPrefix(body, []byte(open)) || end < 0 {
		t.Fatalf("not an /explain body: %s", body)
	}
	return body[len(open):end]
}

// TestFirstHitsShareOneEncoding takes the first HTTP hit of one cached
// result on 16 goroutines at once — under -race, the check that the
// encoding is built behind its Once and the cached result is only ever
// read — and requires every body to carry the same result bytes; a
// later hit on the same generation must serve those bytes again.
func TestFirstHitsShareOneEncoding(t *testing.T) {
	s := liveServer(t, "")
	h := s.Handler()
	// A library caller fills the cache and builds no encoding.
	cached, err := s.store.Current().Explainer.Explain("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cached)
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

	rec := get(t, h, "/explain?start=a&end=b")
	if rec.Header().Get(GenerationHeader) != "1" {
		t.Errorf("later hit: %s %q, want 1", GenerationHeader, rec.Header().Get(GenerationHeader))
	}
	if got := resultBytes(t, rec.Body.Bytes()); !bytes.Equal(got, want) {
		t.Errorf("later hit: result bytes\n%s\nwant\n%s", got, want)
	}
	if st := stats(t, h); st.Cache.Hits != clients+1 || st.Cache.Misses != 1 {
		t.Errorf("cache after one more hit = %+v", st.Cache)
	}
}

// TestWriteBatchMatchesEncoder: the /batch body assembled from each
// result's stored encoding is the reflective encoder's, byte for byte,
// for results and errors, hits and misses, traces, truncation, SQL and
// names that need escaping.
func TestWriteBatchMatchesEncoder(t *testing.T) {
	s := liveServer(t, "")
	ex := s.store.Current().Explainer
	traced := func(start, end string, r rex.Request) rex.BatchResult {
		t.Helper()
		r.Pair = rex.Pair{Start: start, End: end}
		res, err := ex.Query(rex.WithTrace(context.Background()), r)
		if err != nil {
			t.Fatal(err)
		}
		return rex.BatchResult{Pair: rex.Pair{Start: start, End: end}, Result: res}
	}
	untraced := func(br rex.BatchResult) rex.BatchResult {
		cp := *br.Result
		cp.Trace = nil
		br.Result = &cp
		return br
	}
	const hostile = "q\"\\ <&> \u2028\xff\x01é"
	miss := traced("a", "b", rex.Request{})
	hit := traced("a", "b", rex.Request{})
	results := []rex.BatchResult{
		untraced(miss),
		hit,
		untraced(traced("c", "d", rex.Request{})),
		untraced(traced("a", "b", rex.Request{SQL: true})),
		traced("b", "a", rex.Request{Budget: rex.Budget{Timeout: time.Nanosecond}}),
		{Pair: rex.Pair{Start: hostile, End: "b"}, Err: fmt.Errorf("rex: %w %q", rex.ErrUnknownEntity, hostile)},
		{Pair: rex.Pair{Start: "a", End: "a"}, Err: errors.New("rex: start and end entity are both \"a\"")},
	}
	if !results[4].Result.Truncated {
		t.Fatal("an expired budget did not truncate")
	}
	want := batchResponse{Generation: 9, Fingerprint: "00f1e2d3c4b5a697", ElapsedMS: 1.234}
	for _, br := range results {
		e := batchEntry{Start: br.Pair.Start, End: br.Pair.End, Result: br.Result}
		if br.Result != nil {
			e.Truncated = br.Result.Truncated
		}
		if br.Err != nil {
			e.Error = br.Err.Error()
		}
		want.Results = append(want.Results, e)
	}
	rec := httptest.NewRecorder()
	writeBatch(rec, results, want.Generation, want.Fingerprint, 1234*time.Microsecond)
	if wantBody := reflected(want); !bytes.Equal(rec.Body.Bytes(), wantBody) {
		t.Errorf("writeBatch wrote\n%s\nthe encoder writes\n%s", rec.Body, wantBody)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length = %q for %d bytes", got, rec.Body.Len())
	}
	if got := rec.Header().Get(GenerationHeader); got != "9" {
		t.Errorf("%s = %q, want 9", GenerationHeader, got)
	}

	// Through the handler: decode what was served and require that the
	// encoder writes those values back as the same bytes.
	h := s.Handler()
	for _, body := range []string{
		`{"pairs":[{"start":"a","end":"b"},{"start":"c","end":"d"},{"start":"x","end":"b"}]}`,
		`{"pairs":[{"start":"a","end":"b"},{"start":"b","end":"a"}],"trace":true}`,
		`{"pairs":[{"start":"a","end":"b"}],"sql":true,"budget_ms":1}`,
	} {
		rec := post(t, h, "/batch", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /batch %s: status %d, body %s", body, rec.Code, rec.Body)
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("POST /batch %s: %v in %s", body, err, rec.Body)
		}
		if want := reflected(resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("POST /batch %s: served\n%s\nthe encoder writes\n%s", body, rec.Body, want)
		}
	}
}

// TestSQLOnRequest: the served answer leaves SQL out unless the request
// asks (sql=1, or "sql": true in a body), and the two answers are two
// cache entries, each served from its own stored encoding.
func TestSQLOnRequest(t *testing.T) {
	s := liveServer(t, "")
	h := s.Handler()
	sqlKey := []byte(`"SQL":`)
	plain := get(t, h, "/explain?start=a&end=b")
	withSQL := get(t, h, "/explain?start=a&end=b&sql=1")
	if plain.Code != http.StatusOK || withSQL.Code != http.StatusOK {
		t.Fatalf("status plain %d, sql=1 %d", plain.Code, withSQL.Code)
	}
	if bytes.Contains(plain.Body.Bytes(), sqlKey) {
		t.Errorf("a default answer carries SQL: %s", plain.Body)
	}
	if !bytes.Contains(withSQL.Body.Bytes(), sqlKey) {
		t.Errorf("a sql=1 answer carries no SQL: %s", withSQL.Body)
	}
	if st := stats(t, h); st.Cache.Misses != 2 || st.Cache.Hits != 0 || st.Cache.Entries != 2 {
		t.Fatalf("after a plain and a sql=1 query: cache %+v, want two misses, two entries", st.Cache)
	}
	for _, tc := range []struct {
		name string
		rec  *httptest.ResponseRecorder
		sql  bool
	}{
		{"GET plain", get(t, h, "/explain?start=a&end=b"), false},
		{"GET sql=1", get(t, h, "/explain?start=a&end=b&sql=1"), true},
		{"POST sql", post(t, h, "/explain", `{"start":"a","end":"b","sql":true}`), true},
	} {
		cached, err := s.store.Current().Explainer.Query(context.Background(), rex.Request{Pair: rex.Pair{Start: "a", End: "b"}, SQL: tc.sql})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(cached)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultBytes(t, tc.rec.Body.Bytes()); !bytes.Equal(got, want) {
			t.Errorf("%s: result bytes\n%s\nwant\n%s", tc.name, got, want)
		}
	}
	if st := stats(t, h); st.Cache.Misses != 2 || st.Cache.Hits != 6 {
		t.Errorf("repeats were not hits: cache %+v", st.Cache)
	}

	pairs := `"pairs":[{"start":"a","end":"b"}]`
	if rec := post(t, h, "/batch", `{`+pairs+`}`); rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), sqlKey) {
		t.Errorf("default /batch: status %d, body %s", rec.Code, rec.Body)
	}
	if rec := post(t, h, "/batch", `{`+pairs+`,"sql":true}`); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), sqlKey) {
		t.Errorf("/batch with sql: status %d, body %s", rec.Code, rec.Body)
	}
}

// TestSQLKeepsDefaultBudget: asking for SQL bounds nothing, so a sql=1
// request runs under the server's default budget like any other. The
// default here has ended before any query starts, so a request under it
// is cut at the path search and answers truncated (with no explanation
// to carry SQL: the facade's TestRequestResolution holds SQL on a
// truncated answer that has some), while one that sets budget_ms runs
// under its own bound, whole, with SQL.
func TestSQLKeepsDefaultBudget(t *testing.T) {
	k, err := rex.ReadKB(strings.NewReader(liveBaseTSV))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{Measure: "size", TopK: 100, MaxPatternSize: 3, CacheSize: 64,
		Budget: rex.Budget{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	h := New(store, Config{}).Handler()
	for _, target := range []string{"/explain?start=a&end=b", "/explain?start=a&end=b&sql=1"} {
		var resp explainResponse
		if err := json.Unmarshal(get(t, h, target).Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Truncated {
			t.Errorf("%s ran past the expired default budget", target)
		}
	}
	rec := post(t, h, "/batch", `{"pairs":[{"start":"a","end":"b"}],"sql":true}`)
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || !resp.Results[0].Truncated {
		t.Errorf("/batch with sql: %s", rec.Body)
	}
	rec = post(t, h, "/batch", `{"pairs":[{"start":"a","end":"b"}],"sql":true,"budget_ms":60000}`)
	resp = batchResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Truncated || resp.Results[0].Result.Explanations[0].SQL == "" {
		t.Errorf("/batch with sql and its own budget: %s", rec.Body)
	}
}
