// Command rexrouter fronts a fleet of rexserve replicas with
// consistent-hash routing, health-checked failover, circuit breakers
// and request hedging:
//
//	rexrouter -addr :8090 -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	rexrouter -replicas r1=http://10.0.0.1:8080,r2=http://10.0.0.2:8080
//
// Endpoints (all JSON unless noted):
//
//	GET/POST /explain       routed to the (pair, budget) key's owner, with
//	                        failover down the key's deterministic chain
//	POST     /batch         scattered by key ownership, gathered in request
//	                        order; the answer is always a single generation
//	POST     /admin/delta   broadcast to every replica, serialised so the
//	                        whole fleet applies deltas in one order
//	GET      /healthz       tier health: routable count, generation floor,
//	                        one row per replica (health, drain, breaker)
//	GET      /metrics       Prometheus text exposition (routing counters,
//	                        hedge outcomes, per-replica gauges)
//
// Replicas are health-checked every -health-interval against their
// /healthz: a 200 is routable, a draining 503 is honored by bleeding
// the replica without killing in-flight work, anything else is marked
// down. Connect failures mark a replica down immediately — a killed
// process stops receiving traffic at the next attempt, not the next
// probe.
//
// Per-replica circuit breakers open after -breaker-threshold
// consecutive failures and probe again after an exponentially growing,
// jittered backoff. A 429 shed from a replica is forwarded untouched
// and never counts as a failure: shed is shed, and retrying shed into
// an overloaded fleet only deepens the overload.
//
// Budgeted queries hedge: when the primary attempt outlives the
// observed p95 latency (clamped to [-hedge-min, -hedge-max]), a
// duplicate fires one position down the failover chain carrying the
// same X-Request-Id; the first answer wins and the loser is cancelled.
// -no-hedge disables the mechanism, for comparing tails with and without it.
//
// Every response below the router's generation floor — the largest KB
// generation any client has seen — is discarded and re-routed, so no
// client ever observes the knowledge base moving backwards across
// failovers, hedges or delta broadcasts.
//
// Replicas the router catches below the floor — rejected answers,
// failed broadcasts, or a health probe after a cold restart — are
// marked lagging: excluded from routing and delta fan-out (applying a
// broadcast onto stale state would fork their history) and kicked to
// catch up via POST /admin/sync against the freshest peer, at most one
// kick per -sync-kick-interval per replica. The next probe that shows
// a lagging replica back at the floor re-admits it; no operator action
// is involved at any point.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rex"
	"rex/internal/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs, each optionally name=url (required)")
		healthIv = flag.Duration("health-interval", time.Second, "replica /healthz polling period")
		timeout  = flag.Duration("timeout", 0, "per-attempt replica request deadline (0 = none; replicas enforce their own)")
		retries  = flag.Int("retries", 3, "failover-chain passes per request before giving up")
		retryB   = flag.Duration("retry-base", 50*time.Millisecond, "first inter-pass backoff (doubles per pass, jittered)")
		retryM   = flag.Duration("retry-max", 2*time.Second, "inter-pass backoff cap")
		hedgeMin = flag.Duration("hedge-min", 10*time.Millisecond, "smallest hedge delay for budgeted queries")
		hedgeMax = flag.Duration("hedge-max", 2*time.Second, "largest hedge delay (also used until p95 warms up)")
		noHedge  = flag.Bool("no-hedge", false, "disable request hedging")
		brkThr   = flag.Int("breaker-threshold", 3, "consecutive failures before a replica's breaker opens")
		brkBase  = flag.Duration("breaker-base", 200*time.Millisecond, "first breaker-open interval (doubles per reopen, jittered)")
		brkMax   = flag.Duration("breaker-max", 10*time.Second, "breaker-open interval cap")
		vnodes   = flag.Int("vnodes", 0, "hash-ring points per replica (0 = default 64)")
		kickIv   = flag.Duration("sync-kick-interval", 5*time.Second, "minimum spacing between catch-up kicks per lagging replica")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("rexrouter", rex.Build())
		return
	}
	rcs, err := parseReplicas(*replicas)
	if err != nil {
		fatal(err)
	}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:         rcs,
		Client:           client,
		HealthInterval:   *healthIv,
		Retries:          *retries,
		RetryBase:        *retryB,
		RetryMax:         *retryM,
		HedgeMin:         *hedgeMin,
		HedgeMax:         *hedgeMax,
		DisableHedging:   *noHedge,
		BreakerThreshold: *brkThr,
		BreakerBase:      *brkBase,
		BreakerMax:       *brkMax,
		VNodes:           *vnodes,
		SyncKickInterval: *kickIv,
	})
	if err != nil {
		fatal(err)
	}
	rt.Start()
	defer rt.Close()
	log.Printf("rexrouter: routing %d replicas, health every %v, hedging %s",
		len(rcs), *healthIv, map[bool]string{true: "off", false: "on"}[*noHedge])
	for _, rc := range rcs {
		log.Printf("rexrouter: replica %s at %s", rc.Name, rc.URL)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Printf("rexrouter: listening on %s", *addr)
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		// The router holds only soft state, so shutdown is just closing
		// the listener; clients retry against a standby router and lose
		// nothing but a health-check round of warmup.
		log.Printf("rexrouter: %v received; closing", sig)
		hs.Close() //nolint:errcheck // exiting anyway
	}
}

// parseReplicas turns "name=url,name=url" (names optional) into replica
// configs, defaulting names to r0, r1, ... in flag order.
func parseReplicas(s string) ([]cluster.ReplicaConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-replicas is required (comma-separated base URLs)")
	}
	var rcs []cluster.ReplicaConfig
	for i, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rc := cluster.ReplicaConfig{Name: fmt.Sprintf("r%d", i)}
		if eq := strings.Index(part, "="); eq > 0 && !strings.Contains(part[:eq], "/") {
			rc.Name, part = part[:eq], part[eq+1:]
		}
		rc.URL = part
		rcs = append(rcs, rc)
	}
	if len(rcs) == 0 {
		return nil, fmt.Errorf("-replicas is required (comma-separated base URLs)")
	}
	return rcs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rexrouter:", err)
	os.Exit(1)
}
