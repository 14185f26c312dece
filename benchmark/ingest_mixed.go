package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/live"
)

// ingest_mixed: the library over a durable store — WAL fsynced on
// every append ("always": an acknowledged delta survives a machine
// crash), a checkpoint every 64 appends, an overlay compaction every 32
// deltas — with one client applying the delta stream back to back and
// the other querying the hot population for as long as the writes last.
// It uses the same kb and rex layers as engine_cold differently: reads
// run on overlay graphs, and every swap drops or carries over cache
// entries and evaluator memos (on this KB the radius-5 ball around a
// delta overflows, so every swap empties the result cache and nearly
// every read beside the writer is a recompute). A read-path gain that
// slows overlay reads, or a write-path change that costs readers, shows
// here and nowhere else. The restart is real recovery: newest checkpoint
// plus WAL tail, then the first query.

func ingestOptions(dir string) rex.Options {
	return rex.Options{CacheSize: 256, Durability: rex.DurabilityOptions{Dir: filepath.Join(dir, "journal"), Fsync: "always"}}
}

type ingestEnv struct {
	ds    *dataset
	store *rex.Store
	opt   rex.Options
}

func ingestMixed(r *run) error {
	env, err := setups(r, func(dir string) (*ingestEnv, error) {
		ds, err := buildDataset(r.c.Preset, dir)
		if err != nil {
			return nil, err
		}
		opt := ingestOptions(dir)
		store, err := rex.OpenStore(ds.kbPath, opt)
		if err != nil {
			return nil, err
		}
		e := &ingestEnv{ds: ds, store: store, opt: opt}
		snap := store.Current()
		if err := r.warm(ds.hot, func(p rex.Pair) timed { return r.explainSnap(snap, p) }); err != nil {
			store.Close() //nolint:errcheck // the set-up already failed
			return nil, err
		}
		return e, nil
	}, func(e *ingestEnv) { e.store.Close() }) //nolint:errcheck // a discarded set-up
	if err != nil {
		return err
	}
	ds, store := env.ds, env.store
	defer func() { store.Close() }() //nolint:errcheck // closed and checked after every round; this covers early returns
	r.checkDataset(ds)
	r.notef("flush policy: fsync=always, checkpoint every %d appends, compaction every %d deltas", live.DefaultCheckpointEvery, live.DefaultCompactDepth)

	perRound := r.c.Deltas[wlIngestMixed]
	deltas := deltaStream(ds.g, r.opt.seed, r.c.Rounds*perRound, r.c.OpsPerDelta)
	var walk *writeWalk
	if r.tr != nil {
		if walk, err = newWriteWalk(r, ds, filepath.Join(r.dir, "walk-journal")); err != nil {
			return err
		}
		defer walk.close()
	}
	rng := rand.New(rand.NewSource(r.opt.seed*1000 + 1))
	asked := make([]uint64, len(ds.hot)) // generation each hot pair was last asked on
	var (
		depthMax                       int
		checkpoints, fsyncs, walBytes  uint64
		compactions, carried, droppedN uint64
		evictions                      uint64
		tip                            rex.StoreSnapshot
	)
	for round := 0; round < r.c.Rounds; round++ {
		// The store was reopened at the end of the previous round: its
		// evaluator memos are empty. Fill them, untimed.
		snap := store.Current()
		if round > 0 {
			if err := r.warm(ds.hot, func(p rex.Pair) timed { return r.explainSnap(snap, p) }); err != nil {
				return err
			}
		}
		for i := range asked {
			asked[i] = snap.Generation // the warm pass asked it
		}
		// Mixed block. The writer's list is fixed; the reader makes
		// shuffled passes over the hot population, every query on the
		// snapshot current when it starts, until the writer's last delta is
		// acknowledged, and then finishes the pass it is in, so every pair
		// is asked equally often. It asks a pair only on a generation it has
		// not asked that pair on before: a repeat on the same snapshot is a
		// sub-microsecond cache hit, and a reader spinning on those (60
		// passes per delta) measures the timer. A pass outlasts hundreds of
		// swaps, so nothing is skipped while the writer runs, and what is
		// measured is the first read of a pair after a swap: a recompute on
		// an overlay graph with promoted memos.
		var (
			wg      sync.WaitGroup
			done    atomic.Bool
			readLat []float64
		)
		quiesce()
		t0 := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for _, i := range rng.Perm(len(ds.hot)) {
					snap := store.Current()
					if snap.Generation == asked[i] {
						continue
					}
					asked[i] = snap.Generation
					readLat = append(readLat, r.one("query", 1, r.explainSnap(snap, ds.hot[i])))
				}
			}
		}()
		r.writeBlock(round*perRound, deltas[round*perRound:(round+1)*perRound], func(i int, body string) timed {
			if walk != nil {
				walk.step(body)
			}
			return func(client int, parent *handle) (func() error, error) {
				sp := r.tr.begin(parent, layerLive, "Store.Apply")
				info, err := store.Apply(strings.NewReader(body))
				sp.end()
				if err != nil {
					return nil, err
				}
				if info.Generation != uint64(i+2) {
					return nil, fmt.Errorf("Store.Apply published generation %d, want %d", info.Generation, i+2)
				}
				depthMax = max(depthMax, info.OverlayDepth)
				if walk != nil {
					walk.attribute(sp, info)
				}
				return nil, nil
			}
		})
		done.Store(true)
		wg.Wait()
		r.sampleLatency("query", 95, "query_qps", readLat, time.Since(t0))

		// The counters below are per journal and per store; both end here.
		tip = store.Current()
		dur, lst := store.DurabilityStats(), store.LiveStats()
		checkpoints += dur.Checkpoints
		fsyncs += dur.Fsyncs
		walBytes += dur.AppendedBytes
		compactions += lst.Compactions
		carried += lst.ResultsCarried
		droppedN += lst.ResultsDropped
		evictions += tip.Explainer.CacheStats().Evictions
		if err := store.Close(); err != nil {
			return err
		}

		// Restart: reopen the closed store over its journal directory and
		// answer the first query; the next round continues on it.
		quiesce()
		if err := r.restart(1, func() error {
			s, err := rex.OpenStore(ds.kbPath, env.opt)
			if err != nil {
				return err
			}
			store = s
			snap := s.Current()
			res, err := snap.Explainer.Explain(ds.light.Start, ds.light.End)
			if err != nil {
				return err
			}
			if snap.Generation != tip.Generation || snap.Fingerprint != tip.Fingerprint {
				return fmt.Errorf("recovered generation %d fingerprint %s, the writer ended on %d %s", snap.Generation, snap.Fingerprint, tip.Generation, tip.Fingerprint)
			}
			r.chk.check(ds.light, snap.Generation, answerOf(res))
			return nil
		}); err != nil {
			return err
		}
	}
	r.verifyFinal(len(deltas), tip.Generation, tip.Fingerprint)
	r.notef("%d checkpoints, %d compactions, %d fsyncs", checkpoints, compactions, fsyncs)
	if r.tr != nil {
		r.queryLedger()
		walk.report()
		var deltaBytes int
		for _, d := range deltas {
			deltaBytes += len(d)
		}
		r.set("live.fsyncs", float64(fsyncs), 1)
		r.set("live.checkpoints", float64(checkpoints), 1)
		r.set("live.wal_bytes_per_delta_byte", share(float64(walBytes), float64(deltaBytes)), len(deltas))
		r.set("live.carried_share", share(float64(carried), float64(carried+droppedN)), int(carried+droppedN))
		r.set("live.post_swap_hit_share", r.metrics["rex.cache_hit_share"].Value, r.metrics["rex.cache_hit_share"].Samples)
		r.set("live.overlay_depth_max", float64(depthMax), len(deltas))
		r.set("kb.compactions", float64(compactions), 1)
		r.set("rex.cache_evictions", float64(evictions), 1)
	}
	return store.Close()
}

// writeWalk is the traced run's view into Store.Apply. The store hides
// its write path, so before each real apply the walk performs the same
// steps itself through the layers' public functions, on a shadow of the
// store's graph and a journal of its own: live.ParseDelta, Delta.Apply,
// Graph.Compact when the overlay chain is 32 deep, Journal.Append,
// Journal.Checkpoint when one is due. What is left of the real
// Store.Apply after those is live.publish_ms: building the next
// Explainer and carrying cache entries and memos over.
type writeWalk struct {
	r       *run
	shadow  *kb.Graph
	journal *live.Journal
	dir     string
	gen     uint64

	last                                      map[string]time.Duration // the walk's step times for the delta about to be applied
	parse, apply, compact, wal, ckpt, publish []float64
	overlayNS                                 float64
	overlayCalls                              int
	nodes                                     []kb.NodeID
}

func newWriteWalk(r *run, ds *dataset, dir string) (*writeWalk, error) {
	g, err := kb.LoadBinary(ds.kbPath)
	if err != nil {
		return nil, err
	}
	jn, err := live.OpenJournal(dir, live.JournalOptions{Fsync: live.FsyncAlways})
	if err != nil {
		return nil, err
	}
	if _, _, err := jn.Recover(); err != nil {
		return nil, err
	}
	if err := jn.Checkpoint(g, 1); err != nil {
		return nil, err
	}
	w := &writeWalk{r: r, shadow: g, journal: jn, dir: dir, gen: 1}
	for _, p := range ds.pairs {
		w.nodes = append(w.nodes, g.NodeByName(p.Start), g.NodeByName(p.End))
	}
	return w, nil
}

func (w *writeWalk) close() {
	w.journal.Close()   //nolint:errcheck // the walk's journal is scratch
	os.RemoveAll(w.dir) //nolint:errcheck // scratch
}

// step walks one delta through the write path's layers.
func (w *writeWalk) step(body string) {
	tr := w.r.tr
	w.last = map[string]time.Duration{}
	root := tr.begin(nil, layerBench, "delta-walk")
	defer root.end()

	sp := tr.begin(root, layerLive, "live.ParseDelta")
	d, err := live.ParseDelta(strings.NewReader(body))
	w.last["parse"] = sp.end()
	if err != nil {
		return
	}
	sp = tr.begin(root, layerLive, "Delta.Apply")
	g, _, _, err := d.Apply(w.shadow)
	w.last["apply"] = sp.end()
	if err != nil {
		return
	}
	if g.Overlay().Depth == 8 && w.overlayCalls == 0 {
		w.overlayNS, w.overlayCalls = neighborsNS(g, w.nodes), len(w.nodes)
	}
	if info := g.Overlay(); info.Depth >= live.DefaultCompactDepth || info.Ratio > live.DefaultCompactRatio {
		sp = tr.begin(root, layerKB, "Graph.Compact")
		g = g.Compact()
		w.last["compact"] = sp.end()
	}
	w.shadow = g
	w.gen++
	sp = tr.begin(root, layerLive, "Journal.Append")
	err = w.journal.Append(w.gen, d.AppendWire(nil))
	w.last["wal"] = sp.end()
	if err == nil && w.journal.ShouldCheckpoint() {
		sp = tr.begin(root, layerLive, "Journal.Checkpoint")
		w.journal.Checkpoint(g, w.gen) //nolint:errcheck // a failed scratch checkpoint only shortens the sample
		w.last["ckpt"] = sp.end()
	}
}

// attribute reports the walk's step times under the real Store.Apply
// span; the span's remaining self time is the publish step.
func (w *writeWalk) attribute(apply *handle, info rex.SwapInfo) {
	tr := w.r.tr
	var steps time.Duration
	for _, name := range []string{"parse", "apply", "compact", "wal", "ckpt"} {
		d, ok := w.last[name]
		if !ok {
			continue
		}
		layer := layerLive
		if name == "compact" {
			layer = layerKB
		}
		tr.reported(apply, layer, "walked "+name, d)
		steps += d
	}
	w.parse = append(w.parse, ms(w.last["parse"]))
	w.apply = append(w.apply, ms(w.last["apply"]))
	w.wal = append(w.wal, ms(w.last["wal"]))
	if d, ok := w.last["compact"]; ok {
		w.compact = append(w.compact, ms(d))
	}
	if d, ok := w.last["ckpt"]; ok {
		w.ckpt = append(w.ckpt, ms(d))
	}
	w.publish = append(w.publish, max(0, ms(info.Elapsed-steps)))
	if info.Fingerprint != w.shadow.Fingerprint() {
		w.r.chk.fail("generation %d: the store's fingerprint %s differs from the walked graph's %s", info.Generation, info.Fingerprint, w.shadow.Fingerprint())
	}
}

func (w *writeWalk) report() {
	r := w.r
	r.set("live.parse_ms", mean(w.parse), len(w.parse))
	r.set("live.apply_ms", mean(w.apply), len(w.apply))
	r.set("live.wal_append_ms", mean(w.wal), len(w.wal))
	r.set("live.checkpoint_ms", mean(w.ckpt), len(w.ckpt))
	r.set("live.publish_ms", mean(w.publish), len(w.publish))
	r.set("kb.compact_ms", mean(w.compact), len(w.compact))
	r.set("kb.neighbors_overlay_ns", w.overlayNS, w.overlayCalls)
}
