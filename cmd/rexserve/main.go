// Command rexserve serves relationship-explanation queries over HTTP,
// with live knowledge-base updates under traffic:
//
//	rexserve -kb entertainment.tsv -addr :8080 -timeout 2s -cache 4096
//	rexserve -sample   # serve the built-in sample knowledge base
//
// Query endpoints (all compact JSON; pipe a body through `jq .` to read
// it indented):
//
//	GET  /explain?start=a&end=b   one pair (also POST {"start","end"})
//	POST /batch                   {"pairs":[{"start","end"},...]}
//	GET  /stats                   uptime, KB version + size, cache and query counters
//	GET  /healthz                 liveness probe with the active KB generation and build info
//	GET  /metrics                 Prometheus text exposition (latency histograms,
//	                              per-stage query timing, cache/memo/overlay state)
//
// Adding trace=1 (GET) or "trace": true (POST body) to /explain — or
// "trace": true to a /batch body — includes a per-stage trace block in
// each result: wall time, expansions, merges and cache activity per
// pipeline stage, plus which stage consumed the budget on truncation.
// Adding sql=1 (GET) or "sql": true (POST and /batch bodies) includes
// each explanation's distributional SQL, which answers leave out
// otherwise; the two answers are cached separately.
//
// Queries at or above -slow-threshold enter an in-memory forensics
// ring served at GET /admin/slow (newest first), and optionally append
// to a -slow-log JSONL file.
//
// Queries accept a per-request wall-clock budget, budget_ms, as an
// /explain query parameter or body field, and as a top-level /batch
// field applying to every pair. A query that exhausts its budget answers
// with the best explanations found so far and "truncated": true instead
// of a 504. The -budget flag sets the default budget: a request without
// budget_ms runs under it (sql=1 sets no bound). With neither the flag
// nor a request bound, queries are exhaustive. A request that sends
// budget_expansions, the path-search cap this server no longer has, is
// refused with a 400.
//
// Admin endpoints (JSON responses):
//
//	POST /admin/delta             stream TSV mutation records; on success the
//	                              server atomically swaps to the new KB version
//	POST /admin/reload            re-read the -kb file from disk and swap it in
//	GET  /admin/snapshot          stream the newest binary checkpoint (ETag =
//	                              fingerprint; supports If-None-Match and Range)
//	GET  /admin/wal?from=G        stream the CRC-framed WAL tail above G
//	                              (410 Gone below the checkpoint horizon)
//	POST /admin/sync?peer=U       kick the sync engine (requires -peers)
//
// With -peers set, the replica self-heals: a background anti-entropy
// loop probes the peers every -sync-interval and, when behind, fetches
// the WAL tail (or a full snapshot when below the peer's checkpoint
// horizon) and catches up through the normal apply path — durable,
// fingerprint-verified, resumable. While catching up the replica keeps
// answering from its current (stale but honest) snapshot unless
// -sync-refuse-stale makes it answer 503 instead.
//
// With -admin-token set, both require "Authorization: Bearer <token>";
// without it they are open, which is only appropriate when the listener
// itself is trusted (loopback or a private network).
//
// With -pprof, the standard net/http/pprof profiling endpoints are
// served under /debug/pprof/ (CPU, heap, goroutine, trace, ...). They
// are off by default and should only be enabled on a trusted listener.
//
// The delta body uses the knowledge-base TSV record syntax plus
// mutation records, replayed in order and applied all-or-nothing:
//
//	node\t<name>\t<type>           add an entity
//	label\t<name>\t<D|U>           register a relationship label
//	edge\t<from>\t<to>\t<label>    add an edge
//	settype\t<name>\t<type>        change an entity's type
//	deledge\t<from>\t<to>\t<label> remove an edge
//
// Swaps are epoch-based: in-flight requests finish on the KB version
// they started with, new requests see the new generation, and each
// version has its own result cache, so stale answers are impossible.
// Every query response carries the generation and content fingerprint
// of the snapshot that computed it.
//
// Every request runs under the -timeout deadline: queries that exceed it
// are aborted mid-enumeration and answered with 504. Results are cached
// in a per-snapshot LRU keyed by (pair, options) sized by -cache.
//
// With -data-dir the live store is crash-safe: every accepted delta is
// appended to a write-ahead log (flushed per -fsync) before the swap
// publishes, the graph is checkpointed periodically, and a restart over
// the same directory recovers the last acknowledged state — including
// after a crash mid-append. The recovered journal wins over -kb.
//
// Overload control: /explain+/batch and /admin mutations each run
// behind a bounded in-flight admission limit (-max-inflight,
// -max-inflight-admin). Requests over the limit queue up to
// -admission-wait, then are shed with 429 and a Retry-After header.
// Probe and scrape endpoints are never shed.
//
// On SIGTERM or SIGINT the server drains gracefully: /healthz flips to
// 503 immediately, in-flight requests finish (bounded by
// -shutdown-timeout), the journal is flushed and closed, and the
// process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rex"
	"rex/internal/serve"
	rexsync "rex/internal/sync"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		kbPath   = flag.String("kb", "", "knowledge base file (default: built-in sample)")
		sample   = flag.Bool("sample", false, "use the built-in sample entertainment KB")
		measureN = flag.String("measure", "size+local-dist", "interestingness measure: "+strings.Join(rex.MeasureNames(), ", "))
		topK     = flag.Int("k", 10, "number of explanations per query")
		maxSize  = flag.Int("size", 5, "pattern size limit (nodes)")
		maxInst  = flag.Int("instances", 3, "max instances per explanation (0 = all)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
		budgetT  = flag.Duration("budget", 0, "default per-query work budget; on expiry the best-so-far explanations are returned as truncated instead of erroring (0 = none; requests override with budget_ms)")
		cacheSz  = flag.Int("cache", 1024, "result cache entries per KB snapshot (0 = disable caching)")
		maxBatch = flag.Int("max-batch", 1024, "largest accepted /batch pair count")
		adminTok = flag.String("admin-token", "", "bearer token required by /admin/* (empty = open; only safe on a trusted listener)")
		pprofOn  = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (only safe on a trusted listener)")
		slowThr  = flag.Duration("slow-threshold", serve.DefaultSlowThreshold, "queries at or above this duration enter the slow-query log at /admin/slow")
		slowRing = flag.Int("slow-ring", serve.DefaultSlowRing, "slow-query entries retained in memory")
		slowFile = flag.String("slow-log", "", "append slow-query JSON lines to this file (empty = in-memory ring only)")

		dataDir  = flag.String("data-dir", "", "durability directory (WAL + checkpoints); empty = in-memory only. A directory holding an earlier journal is recovered on boot and wins over -kb")
		fsyncPol = flag.String("fsync", "always", "WAL flush policy: always, interval or off")
		fsyncInt = flag.Duration("fsync-interval", 100*time.Millisecond, "largest unsynced window under -fsync interval")
		ckptEach = flag.Int("checkpoint-every", 64, "checkpoint after this many WAL appends (negative = size-driven only)")
		ckptSize = flag.Int64("checkpoint-bytes", 64<<20, "checkpoint once the WAL exceeds this size (negative = count-driven only)")

		peers   = flag.String("peers", "", "comma-separated base URLs of peer replicas for self-healing catch-up (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082); empty = no sync engine")
		syncInt = flag.Duration("sync-interval", 2*time.Second, "anti-entropy probe period of the background sync loop")
		syncRef = flag.Bool("sync-refuse-stale", false, "answer queries 503 while a catch-up sync is running instead of serving stale-but-honest results")
		name    = flag.String("name", "", "instance name for logs and failpoint scoping (optional)")

		maxInfl  = flag.Int("max-inflight", 0, "largest admitted concurrent /explain+/batch requests (0 = 4×GOMAXPROCS, min 8; negative = unlimited)")
		maxAdmin = flag.Int("max-inflight-admin", 2, "largest admitted concurrent /admin mutations (negative = unlimited)")
		admWait  = flag.Duration("admission-wait", serve.DefaultAdmissionWait, "how long an over-limit request queues before it is shed with 429")
		drainTO  = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight requests after SIGTERM/SIGINT before the listener is closed hard")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("rexserve", rex.Build())
		return
	}

	opt := rex.Options{
		MaxPatternSize:             *maxSize,
		Measure:                    *measureN,
		TopK:                       *topK,
		MaxInstancesPerExplanation: *maxInst,
		CacheSize:                  *cacheSz,
		Budget:                     rex.Budget{Timeout: *budgetT},
		Durability: rex.DurabilityOptions{
			Dir:             *dataDir,
			Fsync:           *fsyncPol,
			FsyncInterval:   *fsyncInt,
			CheckpointEvery: *ckptEach,
			CheckpointBytes: *ckptSize,
		},
	}
	var (
		store *rex.Store
		err   error
	)
	switch {
	case *kbPath != "":
		store, err = rex.OpenStore(*kbPath, opt)
	default:
		_ = sample // the sample KB is also the default
		store, err = rex.NewStore(rex.SampleKB(), opt)
	}
	if err != nil {
		fatal(err)
	}

	snap := store.Current()
	st := snap.KB.Stats()
	log.Printf("rexserve: %d entities, %d relationships, %d labels; generation %d fingerprint %s; measure=%s timeout=%v cache=%d",
		st.Nodes, st.Edges, st.Labels, snap.Generation, snap.Fingerprint, *measureN, *timeout, *cacheSz)
	if ds := store.DurabilityStats(); ds.Enabled {
		log.Printf("rexserve: durable in %s (fsync=%s): checkpoint generation %d, %d WAL records replayed, torn tail: %v",
			*dataDir, *fsyncPol, ds.CheckpointGen, ds.Replayed, ds.TornTail)
	}
	srv := serve.New(store, serve.Config{
		KBPath:     *kbPath,
		AdminToken: *adminTok,
		Timeout:    *timeout,
		MaxBatch:   *maxBatch,
		Pprof:      *pprofOn,
		Name:       *name,
	})
	var engine *rexsync.Engine
	if *peers != "" {
		peerURLs, err := rexsync.ValidatePeers(*peers)
		if err != nil {
			fatal(err)
		}
		spool := os.TempDir()
		if *dataDir != "" {
			// Spool partial snapshots next to the journal: same filesystem,
			// survives restarts, cleaned up by the engine on completion.
			spool = *dataDir
		}
		engine, err = rexsync.New(store, rexsync.Config{
			Peers:      peerURLs,
			AdminToken: *adminTok,
			Interval:   *syncInt,
			SpoolDir:   spool,
			Logf:       log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		srv.SetSync(engine, *syncRef)
		engine.Start()
		log.Printf("rexserve: sync engine watching %d peer(s) every %v", len(peerURLs), *syncInt)
	}
	q, a := *maxInfl, *maxAdmin
	if q == 0 {
		q, _ = serve.AdmissionDefaults()
	}
	srv.SetAdmission(q, a, *admWait)
	var slowSink io.Writer
	if *slowFile != "" {
		f, err := os.OpenFile(*slowFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		slowSink = f
	}
	srv.SetSlowLog(*slowThr, *slowRing, slowSink)
	// Connection-level timeouts: the -timeout flag only bounds query
	// execution, so slow-header, slow-body, slow-reading and idle
	// connections need their own limits or they pin goroutines and
	// descriptors indefinitely. WriteTimeout caps total response time;
	// with -timeout 0 a very long query can hit it first, which is the
	// safer failure mode for a public listener. ReadTimeout must leave
	// room for a large /admin/delta body to stream over a slow link —
	// at five minutes a maxDeltaBytes body still fits above ~7 Mbps,
	// while ReadHeaderTimeout keeps slow-loris protection tight.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("rexserve: listening on %s", *addr)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	// Graceful shutdown: on SIGTERM/SIGINT flip /healthz to 503 first
	// (so load balancers drain this instance), then let in-flight
	// requests finish under http.Server.Shutdown, close the durability
	// journal, and exit 0. A second signal — or the -shutdown-timeout
	// deadline — closes the listener hard.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		log.Printf("rexserve: %v received; draining (healthz now 503)", sig)
		srv.StartDraining()
		if engine != nil {
			engine.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		done := make(chan error, 1)
		go func() { done <- hs.Shutdown(ctx) }()
		select {
		case err := <-done:
			if err != nil {
				log.Printf("rexserve: drain deadline exceeded, closing: %v", err)
				hs.Close() //nolint:errcheck // exiting anyway
			}
		case sig := <-sigc:
			log.Printf("rexserve: second %v, closing immediately", sig)
			hs.Close() //nolint:errcheck
		}
		cancel()
		if err := store.Close(); err != nil {
			fatal(fmt.Errorf("closing store: %w", err))
		}
		log.Printf("rexserve: shutdown complete")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rexserve:", err)
	os.Exit(1)
}
