package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rex"
	"rex/internal/serve"
)

// BenchmarkRouterExplainHit is a routed cache hit end to end in one
// process: the router's handler, the request over loopback to one
// replica serving the sample KB, the replica's handler on a pair it has
// cached, and the way back — attempt buffering the body and attributing
// it to a generation, forward writing it out. BenchmarkServeExplainHit
// in internal/serve is the replica's share alone.
func BenchmarkRouterExplainHit(b *testing.B) {
	store, err := rex.NewStore(rex.SampleKB(), rex.Options{CacheSize: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	replica := httptest.NewServer(serve.New(store, serve.Config{}).Handler())
	defer replica.Close()
	rt, err := New(Config{Replicas: []ReplicaConfig{{Name: "r0", URL: replica.URL}}, HealthInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	h := rt.Handler()
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/explain?start=brad_pitt&end=angelina_jolie", nil))
		return rec
	}
	get() // fills the cache, opens the connection
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := get(); rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			b.Fatalf("status %d, body %s", rec.Code, rec.Body)
		}
	}
}
