package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rex"
)

type options struct {
	workload       string
	seed           int64
	seconds        float64
	traced         bool
	c              counts // frozen, or the smoke test's toy counts
	updateExpected bool
}

// run is the state of one run of one workload.
type run struct {
	opt     options
	c       counts
	clients int
	tr      *tracer // nil = tracing off
	chk     *checker
	dir     string // scratch directory, removed when the run ends
	metrics map[string]metricValue
	rounds  map[string]*roundValues // metrics sampled once per round, settled when the run ends
	notes   []string

	// expected is the committed expected/<workload>.json (nil while it is
	// being recorded). baseFP is the generated KB's fingerprint; final*
	// the state after the last delta. Both are checked against it.
	expected    *expectedFile
	baseFP      string
	finalGen    uint64
	finalFP     string
	finalDeltas int

	mu        sync.Mutex
	reports   []*rex.QueryTrace // traced run: every query trace the program returned
	attempted int
	failed    int
	firstErr  string
}

// workloadFn runs one workload's phases and fills r.metrics.
type workloadFn func(r *run) error

var workloads = map[string]workloadFn{
	wlEngineCold:  engineCold,
	wlServeHot:    serveHot,
	wlIngestMixed: ingestMixed,
	wlTierRouted:  tierRouted,
}

// runWorkload executes one run. A traced run first repeats the same
// quarter-size run with tracing off, so obs.trace_overhead_share has a
// base measured on the same counts.
func runWorkload(opt options) (*runResult, error) {
	var base *run
	if opt.traced {
		b, err := execute(opt, false)
		if err != nil {
			return nil, err
		}
		base = b
	}
	r, err := execute(opt, opt.traced)
	if err != nil {
		return nil, err
	}
	if base != nil {
		if p := base.metrics["query_p50_ms"].Value; p > 0 {
			r.set("obs.trace_overhead_share", r.metrics["query_p50_ms"].Value/p-1, r.metrics["query_p50_ms"].Samples)
		}
		r.attempted += base.attempted
		r.failed += base.failed
		r.chk.checked += base.chk.checked
		r.chk.wrong += base.chk.wrong
		if r.chk.firstBad == "" {
			r.chk.firstBad = base.chk.firstBad
		}
	}
	return r.result(), nil
}

func execute(opt options, traced bool) (*run, error) {
	r := &run{
		opt: opt, clients: clientCount(), metrics: map[string]metricValue{}, rounds: map[string]*roundValues{},
		c: opt.c.forRun(opt.seconds, opt.traced),
	}
	if traced {
		r.tr = newTracer()
	}
	var expected map[string]string
	if !opt.updateExpected {
		e, err := loadExpected(opt.workload)
		if err != nil {
			return nil, fmt.Errorf("no committed answers to check against (run with -update-expected to record them): %w", err)
		}
		r.expected = e
		if e.pins(r.c.Preset) {
			expected = e.Answers
		} else {
			r.notef("%s pins preset %s; on %s answers are checked against each other only", expectedPath(opt.workload), e.Preset, r.c.Preset)
		}
	}
	r.chk = newChecker(expected)
	tmp := filepath.Join(benchDir(), "out", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, opt.workload+"-")
	if err != nil {
		return nil, err
	}
	r.dir = dir
	defer func() {
		os.RemoveAll(dir) //nolint:errcheck // scratch
		os.Remove(tmp)    //nolint:errcheck // fails while another run's directory is in it, as it should
	}()
	if err := workloads[opt.workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", opt.workload, err)
	}
	r.settle()
	r.set("peak_rss_mb", peakRSSMB(), 1)
	if opt.updateExpected && !opt.traced {
		e := &expectedFile{DatasetSeed: datasetSeed, Preset: r.c.Preset, Fingerprint: r.baseFP, Answers: r.chk.recorded,
			Final: &expectedFinal{Seed: opt.seed, Deltas: r.finalDeltas, Generation: r.finalGen, Fingerprint: r.finalFP}}
		if err := e.save(opt.workload); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := r.tr.write(filepath.Join(benchDir(), "out", "trace-"+opt.workload+".json")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *run) result() *runResult {
	wrong := r.chk.wrong
	attempted := r.attempted
	failed := r.failed + wrong
	if r.opt.traced {
		// End-to-end metrics are never taken from a traced run: keep the
		// per-layer ledger only.
		measured := r.metrics
		r.metrics = map[string]metricValue{}
		for _, m := range perLayer {
			if v, ok := measured[m.Name]; ok {
				r.metrics[m.Name] = v
			} else {
				r.set(m.Name, 0, 0) // the workload does not exercise this layer
			}
		}
	} else {
		r.set("failed_share", float64(failed)/float64(max(1, attempted)), attempted)
		r.set("wrong_answers", float64(wrong), r.chk.checked)
	}
	first := r.chk.firstBad
	if first == "" {
		first = r.firstErr
	}
	return &runResult{
		Workload: r.opt.workload, Seed: r.opt.seed, Seconds: r.opt.seconds, Traced: r.opt.traced,
		Correct: failed == 0, Attempted: attempted, Failed: failed, FirstBad: first,
		Counts: r.c, Notes: r.notes, Metrics: r.metrics,
	}
}

func (r *run) set(name string, v float64, samples int) {
	spec, ok := specOf(name)
	if !ok {
		panic("metric " + name + " is not declared in spec.go")
	}
	r.metrics[name] = metricValue{Value: v, Unit: spec.Unit, Samples: samples}
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// quiesce collects the garbage of what ran before a timed block, so the
// block is not charged for marking it: the load generator shares the
// program's heap, and a 0.3 s block of deltas right after 10 000
// decoded replies had its median move between 0.37 and 0.83 ms.
func quiesce() { runtime.GC() }

// untraced runs f with tracing off: set-up and warm passes are not
// traced operations.
func (r *run) untraced(f func()) {
	tr := r.tr
	r.tr = nil
	f()
	r.tr = tr
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *run) op(err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = err.Error()
		}
	}
	r.mu.Unlock()
}

// setups runs the workload's set-up SetupReps times, every one a sample
// of setup_s; every set-up but the last is torn down again.
func setups[E any](r *run, setup func(dir string) (E, error), teardown func(E)) (E, error) {
	var env E
	for i := 0; i < r.c.SetupReps; i++ {
		dir := filepath.Join(r.dir, "setup"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return env, err
		}
		t0 := time.Now()
		e, err := setup(dir)
		if err != nil {
			return env, fmt.Errorf("set-up: %w", err)
		}
		r.sample("setup_s", time.Since(t0).Seconds(), 1)
		if i < r.c.SetupReps-1 {
			teardown(e)
			os.RemoveAll(dir) //nolint:errcheck // scratch; the run's directory is removed at exit anyway
		}
		env = e
	}
	return env, nil
}

// timed is one operation's client-observed part: it returns after the
// reply is fully received, and hands back the untimed part (decoding
// and checking the answer).
type timed func(client int, parent *handle) (verify func() error, err error)

// closedLoop runs one goroutine per list; each performs its operations
// back to back (the next starts when the previous one's reply is in).
// It returns every operation's latency in ms, lat[c][k] belonging to
// lists[c][k], and the loop's wall time.
func (r *run) closedLoop(rootName string, lists [][]int, opFor func(i int) timed) ([][]float64, time.Duration) {
	lat := make([][]float64, len(lists))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, list := range lists {
		wg.Add(1)
		go func(c int, list []int) {
			defer wg.Done()
			lat[c] = make([]float64, 0, len(list))
			for _, i := range list {
				lat[c] = append(lat[c], r.one(rootName, c, opFor(i)))
			}
		}(c, list)
	}
	wg.Wait()
	return lat, time.Since(t0)
}

func flatten(lat [][]float64) []float64 {
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

// one performs a single operation and returns its latency in ms.
func (r *run) one(rootName string, client int, f timed) float64 {
	root := r.tr.begin(nil, layerBench, rootName)
	t0 := time.Now()
	verify, err := f(client, root)
	d := time.Since(t0)
	root.end()
	if err == nil && verify != nil {
		err = verify()
	}
	r.op(err)
	return float64(d.Nanoseconds()) / 1e6
}

// roundValues is one metric's value in every round so far, and the
// number of operations behind them.
type roundValues struct {
	values []float64
	n      int
}

// sample records one round's value of a metric that the run reports
// once; n is the number of operations the value was computed from.
func (r *run) sample(name string, v float64, n int) {
	rv := r.rounds[name]
	if rv == nil {
		rv = &roundValues{}
		r.rounds[name] = rv
	}
	rv.values = append(rv.values, v)
	rv.n += n
}

// settle reports every sampled metric as the best quartile of its
// rounds: the first quartile of a metric where lower is better, the
// third where higher is. The sandbox's CPU runs at one of two speeds
// 1.6× apart for 5 to 40 s at a time; a median over rounds lands on
// either, while the best quartile reports the fast one as long as a
// quarter of the rounds saw it.
func (r *run) settle() {
	for name, rv := range r.rounds {
		spec, _ := specOf(name)
		r.set(name, bestQuartile(rv.values, spec.Better), rv.n)
		m := r.metrics[name]
		m.Rounds = rv.values
		r.metrics[name] = m
	}
}

// sampleLatency records one round's p50, tail percentile and rate of a
// block of operations.
func (r *run) sampleLatency(prefix string, tail float64, rateName string, lat []float64, wall time.Duration) {
	s := sortedCopy(lat)
	r.sample(prefix+"_p50_ms", percentile(s, 50), len(s))
	r.sample(prefix+"_p"+strconv.Itoa(int(tail))+"_ms", percentile(s, tail), len(s))
	r.sample(rateName, float64(len(s))/wall.Seconds(), len(s))
}

// splitEven deals the operation indices over the clients.
func splitEven(clients int, all []int) [][]int {
	lists := make([][]int, clients)
	for i, v := range all {
		lists[i%clients] = append(lists[i%clients], v)
	}
	return lists
}

// httpClients gives every client its own connection.
func httpClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// wireExplain is the part of a serve / router /explain reply the
// benchmark reads. The trace is present when asked for with trace=1,
// which the traced run does.
type wireExplain struct {
	Result struct {
		Explanations []struct {
			Pattern string
			Score   []float64
		}
		Truncated bool
		Trace     *rex.QueryTrace `json:"trace"`
	} `json:"result"`
	Generation  uint64  `json:"generation"`
	Fingerprint string  `json:"fingerprint"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

func (w *wireExplain) answer() answer {
	a := answer{Truncated: w.Result.Truncated}
	for _, e := range w.Result.Explanations {
		a.Patterns = append(a.Patterns, e.Pattern)
		a.Scores = append(a.Scores, e.Score)
	}
	return a
}

// httpReply is one fully received HTTP response.
type httpReply struct {
	status  int
	body    []byte
	replica string // X-Rex-Replica, set by the router
}

func httpDo(c *http.Client, method, u string, body []byte) (*httpReply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &httpReply{status: resp.StatusCode, body: b, replica: resp.Header.Get("X-Rex-Replica")}, nil
}

func explainURL(base string, p rex.Pair, withTrace bool) string {
	u := base + "/explain?start=" + url.QueryEscape(p.Start) + "&end=" + url.QueryEscape(p.End)
	if withTrace {
		u += "&trace=1"
	}
	return u
}

func decodeExplain(rep *httpReply, p rex.Pair) (*wireExplain, error) {
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("GET /explain %s: status %d: %s", pairKey(p), rep.status, firstLine(rep.body))
	}
	var w wireExplain
	if err := json.Unmarshal(rep.body, &w); err != nil {
		return nil, fmt.Errorf("GET /explain %s: %w", pairKey(p), err)
	}
	return &w, nil
}

// explainHTTP is a GET /explain as a timed operation. In a traced run
// the exchange is a span of the named layer; under it the replica's own
// elapsed_ms is the facade's time, and under that the stage times of
// the trace the replica returns.
func (r *run) explainHTTP(cs []*http.Client, base, layer string, p rex.Pair, bytesSeen *counter) timed {
	return func(client int, parent *handle) (func() error, error) {
		sp := r.tr.begin(parent, layer, "GET /explain")
		rep, err := httpDo(cs[client], http.MethodGet, explainURL(base, p, r.tr != nil), nil)
		sp.end()
		if err != nil {
			return nil, err
		}
		return func() error {
			w, err := decodeExplain(rep, p)
			if err != nil {
				return err
			}
			r.facadeSpans(r.tr.reported(sp, layerRex, "elapsed_ms", time.Duration(w.ElapsedMS*1e6)), w.Result.Trace)
			bytesSeen.add(len(rep.body))
			r.chk.check(p, w.Generation, w.answer())
			return nil
		}, nil
	}
}

// explainSnap is an in-process Explain on a pinned snapshot as a timed
// operation.
func (r *run) explainSnap(snap rex.StoreSnapshot, p rex.Pair) timed {
	return func(client int, parent *handle) (func() error, error) {
		ctx := context.Background()
		if r.tr != nil {
			ctx = rex.WithTrace(ctx)
		}
		sp := r.tr.begin(parent, layerRex, "Explainer.ExplainContext")
		res, err := snap.Explainer.ExplainContext(ctx, p.Start, p.End)
		sp.end()
		if err != nil {
			return nil, err
		}
		return func() error {
			r.facadeSpans(sp, res.Trace)
			r.chk.check(p, snap.Generation, answerOf(res))
			return nil
		}, nil
	}
}

// facadeSpans hangs the stage times the program reported in a query
// trace under the facade span — enumerate, pattern (the union's
// merges), measure with match nested inside it, rank — and keeps the
// report for the counters.
func (r *run) facadeSpans(facade *handle, t *rex.QueryTrace) {
	if r.tr == nil || t == nil {
		return
	}
	stage := map[string]time.Duration{}
	for _, s := range t.Stages {
		stage[s.Stage] = time.Duration(s.DurationMS * 1e6)
	}
	r.tr.reported(facade, layerEnumerate, "stage enumerate", stage["enumerate"])
	r.tr.reported(facade, layerPattern, "stage merge", stage["merge"])
	m := r.tr.reported(facade, layerMeasure, "stage measure", stage["measure"])
	r.tr.reported(m, layerMatch, "stage match", stage["match"])
	r.tr.reported(facade, layerRank, "stage rank", stage["rank"])
	r.mu.Lock()
	r.reports = append(r.reports, t)
	r.mu.Unlock()
}

// queryLedger turns the traced "query" operations into per-layer
// metrics: self time per layer and operation from the spans, work
// counts and hit shares from the program's own trace reports.
func (r *run) queryLedger() {
	l := r.tr.ledgerOf("query")
	n := l.Roots
	r.set("enumerate.self_ms", l.perOp(layerEnumerate), n)
	r.set("pattern.self_ms", l.perOp(layerPattern), n)
	r.set("measure.self_ms", l.perOp(layerMeasure), n)
	r.set("match.self_ms", l.perOp(layerMatch), n)
	r.set("rank.self_ms", l.perOp(layerRank), n)
	r.set("rex.explain_self_ms", l.perOp(layerRex), n)
	engine := l.SelfMS[layerEnumerate] + l.SelfMS[layerPattern] + l.SelfMS[layerMeasure] + l.SelfMS[layerMatch] + l.SelfMS[layerRank]
	r.set("bench.engine_share", share(engine, l.RootMS), n)
	all := r.tr.ledgerOf("")
	r.set("bench.unattributed_share", all.unattributed(), all.Roots)

	var expansions, matchCalls, memoHit, memoMiss, walkHit, walkMiss, hits, dedup float64
	for _, t := range r.reports {
		expansions += float64(t.Expansions)
		memoHit += float64(t.MemoHits)
		memoMiss += float64(t.MemoMisses)
		walkHit += float64(t.WalkCacheHits)
		walkMiss += float64(t.WalkCacheMisses)
		for _, s := range t.Stages {
			if s.Stage == "match" {
				matchCalls += float64(s.Calls)
			}
		}
		if t.CacheHit {
			hits++
		}
		if t.Deduped {
			dedup++
		}
	}
	q := float64(len(r.reports))
	r.set("enumerate.expansions", share(expansions, q), len(r.reports))
	r.set("match.calls_per_query", share(matchCalls, q), len(r.reports))
	r.set("measure.memo_hit_share", share(memoHit, memoHit+memoMiss), int(memoHit+memoMiss))
	r.set("measure.walk_cache_hit_share", share(walkHit, walkHit+walkMiss), int(walkHit+walkMiss))
	r.set("rex.cache_hit_share", share(hits, q), len(r.reports))
	r.set("rex.dedup_share", share(dedup, q), len(r.reports))
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// swapReply is the part of an /admin/delta reply (serve's, or the
// router's broadcast answer) the benchmark reads.
type swapReply struct {
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	Applied     int    `json:"applied"`
}

// deltaHTTP is a POST /admin/delta as a timed operation; wantApplied is
// the replica count a router broadcast must report (0 for a replica).
func (r *run) deltaHTTP(c *http.Client, base, layer, body string, wantGen uint64, wantApplied int) timed {
	return func(client int, parent *handle) (func() error, error) {
		sp := r.tr.begin(parent, layer, "POST /admin/delta")
		rep, err := httpDo(c, http.MethodPost, base+"/admin/delta", []byte(body))
		sp.end()
		if err != nil {
			return nil, err
		}
		return func() error {
			if rep.status != http.StatusOK {
				return fmt.Errorf("POST /admin/delta: status %d: %s", rep.status, firstLine(rep.body))
			}
			var w swapReply
			if err := json.Unmarshal(rep.body, &w); err != nil {
				return err
			}
			if w.Generation != wantGen || w.Applied != wantApplied {
				return fmt.Errorf("POST /admin/delta: generation %d applied %d, want %d and %d", w.Generation, w.Applied, wantGen, wantApplied)
			}
			return nil
		}, nil
	}
}

// deltaLocal is a Store.Apply as a timed operation.
func (r *run) deltaLocal(store *rex.Store, body string, wantGen uint64) timed {
	return func(client int, parent *handle) (func() error, error) {
		sp := r.tr.begin(parent, layerLive, "Store.Apply")
		info, err := store.Apply(strings.NewReader(body))
		sp.end()
		if err != nil {
			return nil, err
		}
		if info.Generation != wantGen {
			return nil, fmt.Errorf("Store.Apply published generation %d, want %d", info.Generation, wantGen)
		}
		return nil, nil
	}
}

// writeBlock applies one round's deltas back to back from one client
// and samples delta_p50_ms, delta_p99_ms and delta_per_s. first is the
// index of deltas[0] in the run's stream.
func (r *run) writeBlock(first int, deltas []string, opFor func(i int, body string) timed) {
	lat := make([]float64, 0, len(deltas))
	t0 := time.Now()
	for k, d := range deltas {
		lat = append(lat, r.one("delta", 0, opFor(first+k, d)))
	}
	r.sampleLatency("delta", 99, "delta_per_s", lat, time.Since(t0))
}

// restart times reps restarts, each a sample of recover_s: bringing the
// workload's deployment up again from what is on disk until it has
// answered its first query.
func (r *run) restart(reps int, f func() error) error {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := f()
		r.sample("recover_s", time.Since(t0).Seconds(), 1)
		r.op(err)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
	}
	return nil
}

// verifyFinal checks the state after the last delta against the
// committed generation and fingerprint when this run applied the stream
// they were recorded for, and keeps it for -update-expected.
func (r *run) verifyFinal(deltas int, gen uint64, fp string) {
	r.finalGen, r.finalFP, r.finalDeltas = gen, fp, deltas
	e := r.expected
	if e == nil || !e.pins(r.c.Preset) || e.Final == nil || e.Final.Seed != r.opt.seed || e.Final.Deltas != deltas {
		return
	}
	if e.Final.Generation != gen || e.Final.Fingerprint != fp {
		r.chk.fail("state after %d deltas is generation %d fingerprint %s, committed %d %s",
			deltas, gen, fp, e.Final.Generation, e.Final.Fingerprint)
	}
}

func firstLine(b []byte) string {
	s := strings.Join(strings.Fields(string(b)), " ")
	if len(s) > 300 {
		s = s[:300]
	}
	return s
}

// counter is a mutex-free-enough tally for untimed bookkeeping.
type counter struct {
	mu    sync.Mutex
	n     int
	total int
}

func (c *counter) add(v int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n++
	c.total += v
	c.mu.Unlock()
}

func (c *counter) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.total) / float64(c.n)
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// promValue sums the samples of one family in a Prometheus text
// exposition, optionally restricted to lines containing every filter.
func promValue(text, family string, filters ...string) float64 {
	var total float64
next:
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		for _, f := range filters {
			if !strings.Contains(line, f) {
				continue next
			}
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			total += v
		}
	}
	return total
}

func scrape(c *http.Client, base string) (string, error) {
	rep, err := httpDo(c, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	if rep.status != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: status %d", rep.status)
	}
	return string(rep.body), nil
}
