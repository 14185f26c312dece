package serve

import (
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

// hitFixture is a server over the sample KB at the benchmark's options
// with the running example's pair cached and encoded, and the function
// that serves one more hit of it through the whole middleware stack.
func hitFixture(tb testing.TB, target string) (serve func() *discardWriter) {
	tb.Helper()
	store, err := rex.NewStore(rex.SampleKB(), rex.Options{CacheSize: 512})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Close() })
	h := New(store, Config{}).Handler()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	w := &discardWriter{h: http.Header{}}
	serve = func() *discardWriter {
		clear(w.h)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		return w
	}
	if serve().status != http.StatusOK {
		tb.Fatalf("GET %s = %d", target, w.status)
	}
	return serve
}

const hitTarget = "/explain?start=brad_pitt&end=angelina_jolie"

// TestServeExplainHitAllocBound keeps a cached GET /explain a copy: 38
// allocations and 48 KB when the handler encoded the result
// reflectively on every hit, so an encoder that comes back shows here.
func TestServeExplainHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; counts are not meaningful")
	}
	serve := hitFixture(t, hitTarget)
	const runs = 200
	var before, after runtime.MemStats
	allocs := testing.AllocsPerRun(runs, func() {
		if w := serve(); w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perHit := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("cached GET /explain: %.0f allocs, %d B allocated, %d B body", allocs, perHit, serve().n)
	if allocs > 30 {
		t.Errorf("cached GET /explain allocates %.0f times; want ≤ 30", allocs)
	}
	if perHit > 4<<10 {
		t.Errorf("cached GET /explain allocates %d B; want ≤ 4 KiB", perHit)
	}
}

// BenchmarkServeExplainHit is the replica's share of a cache hit: the
// handler behind its whole middleware stack writing into a discarding
// ResponseWriter, without and with the per-query trace in the body.
func BenchmarkServeExplainHit(b *testing.B) {
	for _, bc := range []struct{ name, target string }{
		{"plain", hitTarget},
		{"trace", hitTarget + "&trace=1"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			serve := hitFixture(b, bc.target)
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = serve().n
			}
			b.ReportMetric(float64(n), "B/response")
		})
	}
}
