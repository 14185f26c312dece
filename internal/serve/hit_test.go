package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"rex"
)

// discardWriter is a ResponseWriter that keeps nothing, so what a
// request allocates is the handler's doing.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// rewindBody is a request body that serves the same bytes again after
// each Close, so one request can be replayed without allocating.
type rewindBody struct {
	bytes.Reader
	body []byte
}

func (b *rewindBody) Close() error {
	b.Reset(b.body)
	return nil
}

// hitFixture is a server over the sample KB at the benchmark's options
// with the request's pairs cached and encoded, and the function that
// serves one more hit of it through the whole middleware stack. A body
// makes the request a POST.
func hitFixture(tb testing.TB, target, body string) (serve func() *discardWriter) {
	tb.Helper()
	store, err := rex.NewStore(rex.SampleKB(), rex.Options{CacheSize: 512})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	h := New(store, Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	var rb *rewindBody
	if body != "" {
		rb = &rewindBody{body: []byte(body)}
		rb.Reset(rb.body)
		req = httptest.NewRequest(http.MethodPost, target, nil)
		req.Body = rb
	}
	w := &discardWriter{h: http.Header{}}
	serve = func() *discardWriter {
		clear(w.h)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if rb != nil {
			rb.Close()
		}
		return w
	}
	if serve().status != http.StatusOK {
		tb.Fatalf("%s %s = %d", req.Method, target, w.status)
	}
	return serve
}

const hitTarget = "/explain?start=brad_pitt&end=angelina_jolie"

// hitBatch is a /batch of four pairs of the sample KB.
const hitBatch = `{"pairs":[{"start":"brad_pitt","end":"angelina_jolie"},{"start":"kate_winslet","end":"leonardo_dicaprio"},` +
	`{"start":"tom_cruise","end":"nicole_kidman"},{"start":"george_clooney","end":"brad_pitt"}]}`

// allocsPerHit reports what one more hit allocates: the count and the
// bytes.
func allocsPerHit(t *testing.T, serve func() *discardWriter) (allocs float64, bytes uint64) {
	t.Helper()
	const runs = 200
	allocs = testing.AllocsPerRun(runs, func() {
		if w := serve(); w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestServeExplainHitAllocBound keeps a cached GET /explain a copy: 38
// allocations and 48 KB when the handler encoded the result
// reflectively on every hit, so an encoder that comes back shows here.
func TestServeExplainHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; counts are not meaningful")
	}
	serve := hitFixture(t, hitTarget, "")
	allocs, perHit := allocsPerHit(t, serve)
	t.Logf("cached GET /explain: %.0f allocs, %d B allocated, %d B body", allocs, perHit, serve().n)
	if allocs > 30 {
		t.Errorf("cached GET /explain allocates %.0f times; want ≤ 30", allocs)
	}
	if perHit > 4<<10 {
		t.Errorf("cached GET /explain allocates %d B; want ≤ 4 KiB", perHit)
	}
}

// TestServeBatchHitAllocBound keeps a /batch of cached pairs a copy of
// each pair's stored encoding: what is left is decoding the request and
// the per-pair fan-out and traces (63 allocations, about 5 KB). While
// the handler encoded the entries reflectively the same batch cost 84
// allocations and 161 KB.
func TestServeBatchHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; counts are not meaningful")
	}
	serve := hitFixture(t, "/batch", hitBatch)
	allocs, perHit := allocsPerHit(t, serve)
	t.Logf("cached POST /batch of 4: %.0f allocs, %d B allocated, %d B body", allocs, perHit, serve().n)
	if allocs > 75 {
		t.Errorf("cached POST /batch allocates %.0f times; want ≤ 75", allocs)
	}
	if perHit > 12<<10 {
		t.Errorf("cached POST /batch allocates %d B; want ≤ 12 KiB", perHit)
	}
}

// BenchmarkServeExplainHit is the replica's share of a cache hit: the
// handler behind its whole middleware stack writing into a discarding
// ResponseWriter, without and with the per-query trace in the body.
func BenchmarkServeExplainHit(b *testing.B) {
	for _, bc := range []struct{ name, target string }{
		{"plain", hitTarget},
		{"trace", hitTarget + "&trace=1"},
		{"sql", hitTarget + "&sql=1"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchHit(b, hitFixture(b, bc.target, ""))
		})
	}
}

// BenchmarkServeBatchHit is BenchmarkServeExplainHit for a /batch of
// four cached pairs.
func BenchmarkServeBatchHit(b *testing.B) {
	benchHit(b, hitFixture(b, "/batch", hitBatch))
}

func benchHit(b *testing.B, serve func() *discardWriter) {
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = serve().n
	}
	b.ReportMetric(float64(n), "B/response")
}
