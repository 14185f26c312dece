package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rex"
	"rex/internal/cluster"
	rexsync "rex/internal/sync"
)

// tier_routed: two durable replicas behind the router, all on loopback
// listeners in this process. It is the only workload where cluster and
// sync do work, and it asks the same hot questions as serve_hot, so its
// query_p50_ms minus serve_hot's is the router hop. A round is: route
// (queries through the router), broadcast (deltas posted to the
// router's /admin/delta, fanned out to both replicas), and the restart
// of a third store that was down for the last half checkpoint interval
// of broadcasts: it reopens over its journal, replays the WAL tail it
// missed from replica 0 (sync.Engine.Sync) and answers. After the last
// round a store that never saw a delta, which is below the checkpoint
// horizon, is brought up by snapshot. With the load generator and three
// servers on two cores this measures per-hop cost and convergence time,
// not scale-out.

func tierOptions(dir, fsync string, checkpointEvery int) rex.Options {
	return rex.Options{CacheSize: 512, Durability: rex.DurabilityOptions{
		Dir: dir, Fsync: fsync, CheckpointEvery: checkpointEvery}}
}

type tierEnv struct {
	ds       *dataset
	replicas []*replicaEnv
	router   *cluster.Router
	front    *httptest.Server
	cs       []*http.Client
	history  []string // deltas the tier has applied before the first round
}

// warm fills both replicas' caches with the hot population through the
// router, untimed.
func (e *tierEnv) warm(r *run) error {
	return r.warm(e.ds.hot, func(p rex.Pair) timed { return r.explainHTTP(e.cs, e.front.URL, layerCluster, p, nil) })
}

func (e *tierEnv) close() {
	closeClients(e.cs)
	if e.front != nil {
		e.front.Close()
		e.router.Close()
	}
	for _, rep := range e.replicas {
		rep.close()
	}
}

func tierRouted(r *run) error {
	env, err := setups(r, func(dir string) (*tierEnv, error) {
		ds, err := buildDataset(r.c.Preset, dir)
		if err != nil {
			return nil, err
		}
		e := &tierEnv{ds: ds, cs: httpClients(r.clients)}
		// The health checker probes once in Start and then not again
		// within a run: a probe that reads generation g while the ack of
		// g+1 is in flight stores g after the ack lifted the floor to g+1,
		// the router then leaves that replica out of the next broadcast as
		// lagging, and without a sync engine behind it the replica never
		// returns (1 run in 10 at the default 1 s interval). Worth its own
		// issue; a benchmark's operations must not fail.
		cfg := cluster.Config{HealthInterval: time.Hour}
		for i := 0; i < 2; i++ {
			name := fmt.Sprintf("r%d", i)
			rep, err := startReplica(ds.kbPath, tierOptions(filepath.Join(dir, name), "always", r.c.TierCheckpointEvery), name)
			if err != nil {
				e.close()
				return nil, err
			}
			e.replicas = append(e.replicas, rep)
			cfg.Replicas = append(cfg.Replicas, cluster.ReplicaConfig{Name: name, URL: rep.srv.URL})
		}
		if e.router, err = cluster.New(cfg); err != nil {
			e.close()
			return nil, err
		}
		e.router.Start()
		e.front = httptest.NewServer(e.router.Handler())
		// One pass on generation 1, where the committed answers apply, then
		// the tier's history, then the pass that fills the caches.
		if err := e.warm(r); err != nil {
			e.close()
			return nil, err
		}
		// The history has a seed of its own, so the rounds' stream is the
		// one every other workload applies.
		e.history = deltaStream(ds.g, r.opt.seed+1, r.c.tierHistory(), r.c.OpsPerDelta)
		failedBefore := r.failed
		r.untraced(func() {
			for i, d := range e.history {
				r.one("history", 0, r.deltaHTTP(e.cs[0], e.front.URL, layerCluster, d, uint64(i+2), len(e.replicas)))
			}
		})
		if r.failed > failedBefore {
			e.close()
			return nil, fmt.Errorf("history: %s", r.firstErr)
		}
		if err := e.warm(r); err != nil {
			e.close()
			return nil, err
		}
		return e, nil
	}, (*tierEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ds, front := env.ds, env.front.URL
	r.checkDataset(ds)
	perRound := r.c.Deltas[wlTierRouted]
	if perRound%r.c.TierCheckpointEvery != 0 {
		return fmt.Errorf("%d deltas per round is not a whole number of checkpoint intervals of %d", perRound, r.c.TierCheckpointEvery)
	}
	deltas := deltaStream(ds.g, r.opt.seed, r.c.Rounds*perRound, r.c.OpsPerDelta)
	firstGen := uint64(len(env.history) + 2) // generation the first round's first delta publishes

	lag, err := newLagger(r, env)
	if err != nil {
		return err
	}
	defer lag.close()
	rngs := r.clientRNGs()
	replicaBefore := make([]string, len(env.replicas))
	for i, rep := range env.replicas {
		if replicaBefore[i], err = scrape(env.cs[0], rep.srv.URL); err != nil {
			return err
		}
	}
	var tip rex.StoreSnapshot
	for round := 0; round < r.c.Rounds; round++ {
		// The previous round's broadcast emptied both replicas' caches.
		if round > 0 {
			if err := env.warm(r); err != nil {
				return err
			}
		}
		// Route block.
		quiesce()
		lat, wall := r.closedLoop("query", zipfLists(rngs, len(ds.hot), r.c.RouteRequests), func(i int) timed {
			return r.explainHTTP(env.cs, front, layerCluster, ds.hot[i], nil)
		})
		r.sampleLatency("query", 95, "query_qps", flatten(lat), wall)

		// Broadcast block: one client posts the deltas one after another.
		// No second client queries beside it: the router rejects a reply
		// whose generation is below the newest it has acknowledged, so
		// under a back-to-back broadcast a query that outlives one delta
		// interval (5 ms) is retried until it gives up — a property of the
		// tier worth its own issue, but a benchmark's operations must not
		// fail. Reads beside writes are ingest_mixed's.
		block := deltas[round*perRound : (round+1)*perRound]
		quiesce()
		r.writeBlock(round*perRound, block, func(i int, body string) timed {
			return r.deltaHTTP(env.cs[0], front, layerCluster, body, firstGen+uint64(i), len(env.replicas))
		})
		tip = env.replicas[0].store.Current()
		for i, rep := range env.replicas[1:] {
			var err error
			if cur := rep.store.Current(); cur.Generation != tip.Generation || cur.Fingerprint != tip.Fingerprint {
				err = fmt.Errorf("replica %d is on generation %d fingerprint %s, replica 0 on %d %s", i+1, cur.Generation, cur.Fingerprint, tip.Generation, tip.Fingerprint)
				r.chk.fail("%v", err)
			}
			r.op(err)
		}

		// Restart with catch-up.
		if err := lag.restart(block, tip); err != nil {
			return err
		}
	}
	r.verifyFinal(len(deltas), tip.Generation, tip.Fingerprint)

	// Snapshot path: a store that never saw a delta.
	snap, snapTook, err := lag.syncFresh(tip)
	r.op(err)
	if err != nil {
		return fmt.Errorf("catch-up by snapshot: %w", err)
	}
	if !snap.FullSnapshot {
		r.notef("the store on generation 1 was brought up over the WAL tail, not by snapshot")
	}

	if r.tr != nil {
		r.queryLedger()
		var slowest float64
		for i, rep := range env.replicas {
			after, err := scrape(env.cs[0], rep.srv.URL)
			if err != nil {
				return err
			}
			slowest = max(slowest, swapMeanMS(replicaBefore[i], after))
		}
		r.set("cluster.broadcast_overhead_ms", r.tr.ledgerOf("delta").perOp(layerCluster)-slowest, len(deltas))
		m, err := scrape(env.cs[0], front)
		if err != nil {
			return err
		}
		r.set("cluster.retries", promValue(m, "rex_router_retries_total"), 1)
		r.set("cluster.hedges_fired", promValue(m, "rex_router_hedges_fired_total"), 1)
		r.set("cluster.gen_rejects", promValue(m, "rex_router_generation_rejects_total"), 1)
		r.set("sync.tail_ms", mean(lag.tailMS), len(lag.tailMS))
		r.set("sync.wal_records", float64(lag.walRecords), len(lag.tailMS))
		r.set("sync.wal_bytes", float64(lag.walBytes), len(lag.tailMS))
		r.set("sync.snapshot_ms", ms(snapTook), 1)
		r.set("sync.snapshot_bytes", float64(snap.SnapshotBytes), 1)
		r.set("sync.mismatches", float64(lag.mismatches), len(lag.tailMS)+1)
		if err := env.warm(r); err != nil {
			return err
		}
		r.hopUnits(env)
	}
	return nil
}

// lagger is a durable store outside the router's fleet that receives
// the fleet's deltas directly (the stores are deterministic, so the same
// bodies in the same order give the same fingerprints), except that it
// is down for the last tierLag broadcasts of every round.
type lagger struct {
	r     *run
	env   *tierEnv
	opt   rex.Options
	store *rex.Store

	tailMS                           []float64
	walRecords, walBytes, mismatches uint64
}

func newLagger(r *run, env *tierEnv) (*lagger, error) {
	// Same options as the replicas but for the flush policy: its own
	// appends are never timed.
	l := &lagger{r: r, env: env, opt: tierOptions(filepath.Join(r.dir, "lagging"), "off", r.c.TierCheckpointEvery)}
	store, err := rex.OpenStore(env.ds.kbPath, l.opt)
	if err != nil {
		return nil, err
	}
	l.store = store
	return l, l.apply(env.history)
}

func (l *lagger) close() { l.store.Close() } //nolint:errcheck // scratch store

func (l *lagger) apply(deltas []string) error {
	for _, d := range deltas {
		if _, err := l.store.Apply(strings.NewReader(d)); err != nil {
			return err
		}
	}
	return nil
}

// restart plays one outage: the store received the round's broadcasts
// up to tierLag before the tip and went down. Timed as recover_s: reopen
// over the journal, one Engine.Sync against replica 0 (the WAL-tail
// path; timed on its own as catchup_s), first query on the fleet's
// generation and fingerprint.
func (l *lagger) restart(block []string, tip rex.StoreSnapshot) error {
	r := l.r
	if err := l.apply(block[:len(block)-r.c.tierLag()]); err != nil {
		return err
	}
	if err := l.store.Close(); err != nil {
		return err
	}
	quiesce()
	return r.restart(1, func() error {
		store, err := rex.OpenStore(l.env.ds.kbPath, l.opt)
		if err != nil {
			return err
		}
		l.store = store
		rep, stats, took, err := l.sync(store, "catch-up over the WAL tail")
		if err != nil {
			return err
		}
		r.sample("catchup_s", took.Seconds(), 1)
		l.tailMS = append(l.tailMS, ms(took))
		l.walRecords += uint64(rep.WALRecords)
		l.walBytes += uint64(rep.WALBytes)
		l.mismatches += stats.Mismatches
		if rep.FullSnapshot {
			r.notef("the lagging store took the snapshot path at generation %d", tip.Generation)
		}
		snap := store.Current()
		res, err := snap.Explainer.Explain(l.env.ds.light.Start, l.env.ds.light.End)
		if err != nil {
			return err
		}
		if snap.Generation != tip.Generation || snap.Fingerprint != tip.Fingerprint {
			err := fmt.Errorf("the lagging store caught up to generation %d fingerprint %s, the fleet is on %d %s", snap.Generation, snap.Fingerprint, tip.Generation, tip.Fingerprint)
			r.chk.fail("%v", err)
			return err
		}
		r.chk.check(l.env.ds.light, snap.Generation, answerOf(res))
		return nil
	})
}

// sync runs one Engine.Sync of store against replica 0 inside a root
// span of its own.
func (l *lagger) sync(store *rex.Store, name string) (*rexsync.Report, rexsync.Stats, time.Duration, error) {
	r := l.r
	eng, err := rexsync.New(store, rexsync.Config{Peers: []string{l.env.replicas[0].srv.URL}, SpoolDir: r.dir})
	if err != nil {
		return nil, rexsync.Stats{}, 0, err
	}
	root := r.tr.begin(nil, layerBench, name)
	sp := r.tr.begin(root, layerSync, "Engine.Sync")
	t0 := time.Now()
	rep, err := eng.Sync(context.Background(), "")
	took := time.Since(t0)
	sp.end()
	root.end()
	return rep, eng.Stats(), took, err
}

// syncFresh brings a store that never saw a delta up to the fleet's tip:
// generation 1 is below replica 0's checkpoint horizon, so the WAL
// request is answered 410 and the engine installs a snapshot.
func (l *lagger) syncFresh(tip rex.StoreSnapshot) (*rexsync.Report, time.Duration, error) {
	store, err := rex.OpenStore(l.env.ds.kbPath, tierOptions(filepath.Join(l.r.dir, "fresh"), "off", l.r.c.TierCheckpointEvery))
	if err != nil {
		return nil, 0, err
	}
	defer store.Close() //nolint:errcheck // scratch store
	rep, stats, took, err := l.sync(store, "catch-up by snapshot")
	if err != nil {
		return nil, 0, err
	}
	l.mismatches += stats.Mismatches
	if cur := store.Current(); cur.Generation != tip.Generation || cur.Fingerprint != tip.Fingerprint {
		err := fmt.Errorf("the fresh store caught up to generation %d fingerprint %s, the fleet is on %d %s", cur.Generation, cur.Fingerprint, tip.Generation, tip.Fingerprint)
		l.r.chk.fail("%v", err)
		return nil, 0, err
	}
	return rep, took, nil
}

// hopUnits prices the router hop on cached pairs: GET /explain through
// the router minus the same GET sent straight to the replica the router
// chose (named in X-Rex-Replica), medians over the population.
func (r *run) hopUnits(env *tierEnv) {
	direct := map[string]string{}
	for i, rep := range env.replicas {
		direct[fmt.Sprintf("r%d", i)] = rep.srv.URL
	}
	var via, straight []float64
	for i := 0; i < 10; i++ {
		for _, p := range env.ds.hot {
			t0 := time.Now()
			rep, err := httpDo(env.cs[0], http.MethodGet, explainURL(env.front.URL, p, false), nil)
			if err != nil || direct[rep.replica] == "" {
				return
			}
			via = append(via, ms(time.Since(t0)))
			t0 = time.Now()
			if _, err := httpDo(env.cs[0], http.MethodGet, explainURL(direct[rep.replica], p, false), nil); err != nil {
				return
			}
			straight = append(straight, ms(time.Since(t0)))
		}
	}
	sort.Float64s(via)
	sort.Float64s(straight)
	r.set("cluster.hop_ms", percentile(via, 50)-percentile(straight, 50), len(via))
}
