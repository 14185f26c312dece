package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"rex"
	"rex/internal/serve"
)

// serve_hot: one replica behind HTTP with a result cache the whole hot
// population fits in. After the warm pass every GET /explain is a cache
// hit, so enumerate and measure do nothing and what is timed is the
// facade's cache lookup and single-flight, serve's mux, admission and
// JSON encoding, and the loopback exchange. An engine change must show
// nothing here. The write block posts the delta stream to /admin/delta
// of the same (non-durable) replica.

type replicaEnv struct {
	store *rex.Store
	srv   *httptest.Server
}

func (e *replicaEnv) close() {
	e.srv.Close()
	e.store.Close() //nolint:errcheck // nothing is written after the server has stopped
}

func startReplica(kbPath string, opt rex.Options, name string) (*replicaEnv, error) {
	store, err := rex.OpenStore(kbPath, opt)
	if err != nil {
		return nil, err
	}
	return &replicaEnv{store: store, srv: httptest.NewServer(serve.New(store, serve.Config{Name: name}).Handler())}, nil
}

type hotEnv struct {
	ds  *dataset
	rep *replicaEnv
	cs  []*http.Client
}

var hotOptions = rex.Options{CacheSize: 512}

func serveHot(r *run) error {
	env, err := setups(r, func(dir string) (*hotEnv, error) {
		ds, err := buildDataset(r.c.Preset, dir)
		if err != nil {
			return nil, err
		}
		rep, err := startReplica(ds.kbPath, hotOptions, "hot")
		if err != nil {
			return nil, err
		}
		e := &hotEnv{ds: ds, rep: rep, cs: httpClients(r.clients)}
		if err := e.warm(r); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}, (*hotEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ds, base := env.ds, env.rep.srv.URL
	r.checkDataset(ds)
	perRound := r.c.Deltas[wlServeHot]
	deltas := deltaStream(ds.g, r.opt.seed, r.c.Rounds*perRound, r.c.OpsPerDelta)
	rngs := r.clientRNGs()
	var bytesSeen counter
	before, err := scrape(env.cs[0], base)
	if err != nil {
		return err
	}
	for round := 0; round < r.c.Rounds; round++ {
		// The previous round's deltas emptied the cache (on this KB the
		// radius-5 ball around any delta overflows, so carry-over drops
		// every entry); fill it again, untimed.
		if round > 0 {
			if err := env.warm(r); err != nil {
				return err
			}
		}
		// Query block: HotRequests GETs drawn Zipf(1.1) over the hot
		// population, dealt evenly to the clients, each on its own
		// connection.
		quiesce()
		lat, wall := r.closedLoop("query", zipfLists(rngs, len(ds.hot), r.c.HotRequests), func(i int) timed {
			return r.explainHTTP(env.cs, base, layerServe, ds.hot[i], &bytesSeen)
		})
		r.sampleLatency("query", 95, "query_qps", flatten(lat), wall)

		// Write block: the delta stream posted to the same replica.
		quiesce()
		r.writeBlock(round*perRound, deltas[round*perRound:(round+1)*perRound], func(i int, body string) timed {
			return r.deltaHTTP(env.cs[0], base, layerServe, body, uint64(i+2), 0)
		})

		// Restart: a non-durable replica comes back from its snapshot
		// file: load, build the store, listen, answer.
		quiesce()
		if err := r.restart(r.c.Restarts, func() error {
			rep, err := startReplica(ds.kbPath, hotOptions, "hot")
			if err != nil {
				return err
			}
			defer rep.close()
			return r.firstQuery(env.cs[0], rep.srv.URL, ds.light, 1, r.baseFP)
		}); err != nil {
			return err
		}
	}
	cur := env.rep.store.Current()
	r.verifyFinal(len(deltas), cur.Generation, cur.Fingerprint)

	if r.tr != nil {
		after, err := scrape(env.cs[0], base)
		if err != nil {
			return err
		}
		r.queryLedger()
		requests := r.c.Rounds * r.c.HotRequests
		r.set("serve.response_bytes", bytesSeen.mean(), bytesSeen.n)
		shed := promValue(after, "rex_requests_shed_total") - promValue(before, "rex_requests_shed_total")
		r.set("serve.shed_share", shed/float64(requests), requests)
		r.set("serve.delta_overhead_ms", r.tr.ledgerOf("delta").perOp(layerServe)-swapMeanMS(before, after), len(deltas))
		r.set("rex.cache_evictions", float64(cur.Explainer.CacheStats().Evictions), 1)
		if err := env.warm(r); err != nil {
			return err
		}
		r.serveUnits(env)
	}
	return nil
}

// warm fills the replica's cache with the hot population, untimed.
func (e *hotEnv) warm(r *run) error {
	return r.warm(e.ds.hot, func(p rex.Pair) timed { return r.explainHTTP(e.cs, e.rep.srv.URL, layerServe, p, nil) })
}

func (e *hotEnv) close() {
	closeClients(e.cs)
	e.rep.close()
}

// warm asks every one of pairs once, untimed, dealt over the clients.
func (r *run) warm(pairs []rex.Pair, opFor func(p rex.Pair) timed) error {
	all := make([]int, len(pairs))
	for i := range all {
		all[i] = i
	}
	failedBefore := r.failed
	r.untraced(func() {
		r.closedLoop("warm", splitEven(r.clients, all), func(i int) timed { return opFor(pairs[i]) })
	})
	if r.failed > failedBefore {
		return fmt.Errorf("warm pass: %s", r.firstErr)
	}
	return nil
}

// firstQuery is the query that ends a restart: it must be answered by
// the expected generation and fingerprint.
func (r *run) firstQuery(c *http.Client, base string, p rex.Pair, wantGen uint64, wantFP string) error {
	rep, err := httpDo(c, http.MethodGet, explainURL(base, p, false), nil)
	if err != nil {
		return err
	}
	w, err := decodeExplain(rep, p)
	if err != nil {
		return err
	}
	if w.Generation != wantGen || w.Fingerprint != wantFP {
		return fmt.Errorf("restarted replica answers from generation %d fingerprint %s, want %d %s", w.Generation, w.Fingerprint, wantGen, wantFP)
	}
	r.chk.check(p, w.Generation, w.answer())
	return nil
}

// swapMeanMS is the mean of the replica's own swap-duration histogram
// between two scrapes: what Store.Apply took inside the replica.
func swapMeanMS(before, after string) float64 {
	sum := promValue(after, "rex_swap_duration_seconds_sum") - promValue(before, "rex_swap_duration_seconds_sum")
	n := promValue(after, "rex_swap_duration_seconds_count") - promValue(before, "rex_swap_duration_seconds_count")
	if n == 0 {
		return 0
	}
	return sum / n * 1e3
}

// serveUnits prices the layers a cache hit crosses: the facade's cache
// lookup in-process, and the same lookup through HTTP.
func (r *run) serveUnits(env *hotEnv) {
	hot := env.ds.hot
	ex := env.rep.store.Current().Explainer
	const rounds = 300
	calls := rounds * len(hot)
	ns, allocs := unitCost(calls, func() {
		for i := 0; i < rounds; i++ {
			for _, p := range hot {
				res, err := ex.Explain(p.Start, p.End)
				if err == nil {
					sink += uint64(len(res.Explanations))
				}
			}
		}
	})
	r.set("rex.cache_hit_ns", ns, calls)
	r.set("rex.cache_hit_allocs", allocs, calls)

	// serve.overhead_ms: GET /explain on a cached pair minus Explain on
	// the same pair in-process, medians over the population.
	var viaHTTP, local []float64
	for i := 0; i < 10; i++ {
		for _, p := range hot {
			t0 := time.Now()
			if _, err := httpDo(env.cs[0], http.MethodGet, explainURL(env.rep.srv.URL, p, false), nil); err != nil {
				return
			}
			viaHTTP = append(viaHTTP, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := ex.Explain(p.Start, p.End); err != nil {
				return
			}
			local = append(local, ms(time.Since(t0)))
		}
	}
	sort.Float64s(viaHTTP)
	sort.Float64s(local)
	r.set("serve.overhead_ms", percentile(viaHTTP, 50)-percentile(local, 50), len(viaHTTP))
}
