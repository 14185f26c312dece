package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rex"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

// liveBaseTSV connects a—b directly; c and d exist but share no
// connection, so (c, d) is only explainable after a delta ingests the
// missing edge.
const liveBaseTSV = `node	a	person
node	b	person
node	c	person
node	d	person
label	knows	U
edge	a	b	knows
`

func liveServer(t *testing.T, kbPath string) *Server {
	t.Helper()
	k, err := rex.ReadKB(strings.NewReader(liveBaseTSV))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{
		Measure: "size", TopK: 100, MaxPatternSize: 3, CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(store, Config{KBPath: kbPath, Timeout: time.Minute, MaxBatch: 8})
}

func postBody(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

func explain(t *testing.T, h http.Handler, start, end string) (explainResponse, int) {
	t.Helper()
	rec := get(t, h, "/explain?start="+start+"&end="+end)
	var resp explainResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad /explain body: %v: %s", err, rec.Body)
		}
	}
	return resp, rec.Code
}

func stats(t *testing.T, h http.Handler) statsResponse {
	t.Helper()
	rec := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAdminDeltaEndpoint(t *testing.T) {
	s := liveServer(t, "")
	h := s.Handler()

	// Method and error handling.
	if rec := get(t, h, "/admin/delta"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/delta: status = %d", rec.Code)
	}
	if rec := postBody(t, h, "/admin/delta", ""); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("empty delta: status = %d, body %s", rec.Code, rec.Body)
	}
	if rec := postBody(t, h, "/admin/delta", "edge\tghost\tb\tknows\n"); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown node: status = %d", rec.Code)
	}
	if rec := postBody(t, h, "/admin/delta", "bogus\trecord\n"); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("parse error: status = %d", rec.Code)
	}
	if st := stats(t, h); st.Version.Generation != 1 || st.Version.Deltas != 0 {
		t.Fatalf("failed deltas moved version info: %+v", st.Version)
	}

	// A real delta: add node e, connect c—d and c—e, retype d, drop a—b.
	delta := strings.Join([]string{
		"# incremental update",
		"node\te\tperson",
		"edge\tc\td\tknows",
		"edge\tc\te\tknows",
		"settype\td\trobot",
		"deledge\ta\tb\tknows",
	}, "\n")
	rec := postBody(t, h, "/admin/delta", delta)
	if rec.Code != http.StatusOK {
		t.Fatalf("delta status = %d, body %s", rec.Code, rec.Body)
	}
	var sw swapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Generation != 2 || sw.NodesAdded != 1 || sw.EdgesAdded != 2 || sw.EdgesRemoved != 1 || sw.TypesSet != 1 {
		t.Errorf("swap response = %+v", sw)
	}
	if sw.Nodes != 5 || sw.Edges != 2 {
		t.Errorf("swap KB size = %d nodes, %d edges, want 5, 2", sw.Nodes, sw.Edges)
	}

	// The swap is visible everywhere and the mutations took effect.
	if st := stats(t, h); st.Version.Generation != 2 || st.Version.Swaps != 1 || st.Version.Deltas != 1 {
		t.Errorf("version after delta = %+v", st.Version)
	}
	if resp, code := explain(t, h, "c", "d"); code != http.StatusOK || len(resp.Result.Explanations) == 0 {
		t.Errorf("(c, d) post-swap: code %d, %d explanations", code, len(resp.Result.Explanations))
	}
	if resp, code := explain(t, h, "a", "b"); code != http.StatusOK || len(resp.Result.Explanations) != 0 {
		t.Errorf("(a, b) after deledge: code %d, %d explanations, want 0", code, len(resp.Result.Explanations))
	}
}

// TestStatsLiveSection checks the /stats "live" section and the overlay
// fields of the swap response: a one-edge delta swaps in as a depth-1
// overlay, and the new generation's cache starts empty, so even the
// cached pair out of the delta's reach is computed again.
func TestStatsLiveSection(t *testing.T) {
	// Pad the base with filler edges disconnected from every queried
	// pair so the one-edge delta stays under the compaction ratio and
	// the swap publishes a depth-1 overlay rather than compacting.
	var sb strings.Builder
	sb.WriteString(liveBaseTSV)
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&sb, "node\tf%d\tperson\n", i)
		if i > 0 {
			fmt.Fprintf(&sb, "edge\tf%d\tf%d\tknows\n", i-1, i)
		}
	}
	k, err := rex.ReadKB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	store, err := rex.NewStore(k, rex.Options{
		Measure: "size", TopK: 100, MaxPatternSize: 3, CacheSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, Config{Timeout: time.Minute, MaxBatch: 8})
	h := s.Handler()

	if st := stats(t, h); st.Live.OverlayDepth != 0 || st.Live.Compactions != 0 {
		t.Fatalf("live stats before any delta = %+v", st.Live)
	}

	// Warm the cache on both pairs, then ingest an edge touching only
	// (c, d).
	explain(t, h, "a", "b")
	explain(t, h, "c", "d")
	rec := postBody(t, h, "/admin/delta", "edge\tc\td\tknows\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("delta: status %d, body %s", rec.Code, rec.Body)
	}
	var sw swapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if !sw.Overlay || sw.Compacted || sw.OverlayDepth != 1 {
		t.Errorf("swap overlay fields = %+v, want depth-1 uncompacted overlay", sw)
	}
	for _, body := range []string{rec.Body.String(), get(t, h, "/stats").Body.String()} {
		for _, gone := range []string{"results_carried", "results_dropped", "memo_promotions"} {
			if strings.Contains(body, gone) {
				t.Errorf("response still carries %q: %s", gone, body)
			}
		}
	}

	st := stats(t, h)
	if st.Live.OverlayDepth != 1 || st.Live.Compactions != 0 {
		t.Errorf("live overlay stats after delta = %+v", st.Live)
	}
	if st.Cache.Entries != 0 {
		t.Errorf("new generation's cache = %+v, want empty", st.Cache)
	}

	// The (a, b) entry did not survive the swap: its next query misses.
	explain(t, h, "a", "b")
	if st := stats(t, h); st.Cache.Hits != 0 || st.Cache.Misses != 1 {
		t.Errorf("post-swap (a, b) = %+v, want one miss", st.Cache)
	}
}

func TestAdminTokenGate(t *testing.T) {
	s := liveServer(t, "")
	s.adminToken = "sekrit"
	h := s.Handler()
	delta := "edge\tc\td\tknows\n"

	if rec := postBody(t, h, "/admin/delta", delta); rec.Code != http.StatusUnauthorized {
		t.Errorf("missing token: status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/admin/delta", strings.NewReader(delta))
	req.Header.Set("Authorization", "Bearer wrong")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("wrong token: status = %d", rec.Code)
	}
	if rec := postBody(t, h, "/admin/reload", ""); rec.Code != http.StatusUnauthorized {
		t.Errorf("reload without token: status = %d", rec.Code)
	}
	if st := stats(t, h); st.Version.Generation != 1 {
		t.Fatalf("unauthorized request swapped: %+v", st.Version)
	}

	req = httptest.NewRequest(http.MethodPost, "/admin/delta", strings.NewReader(delta))
	req.Header.Set("Authorization", "Bearer sekrit")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("valid token: status = %d, body %s", rec.Code, rec.Body)
	}
	// Query endpoints stay open regardless of the token.
	if _, code := explain(t, h, "c", "d"); code != http.StatusOK {
		t.Errorf("explain with admin token set: status = %d", code)
	}
}

// TestAdminDeltaNoop checks that a redelivered delta reports success
// without swapping, so at-least-once delivery keeps the warm cache.
func TestAdminDeltaNoop(t *testing.T) {
	s := liveServer(t, "")
	h := s.Handler()
	if rec := postBody(t, h, "/admin/delta", "edge\tc\td\tknows\n"); rec.Code != http.StatusOK {
		t.Fatalf("first delta: %s", rec.Body)
	}
	explain(t, h, "c", "d") // warm the generation-2 cache
	rec := postBody(t, h, "/admin/delta", "edge\tc\td\tknows\n")
	if rec.Code != http.StatusOK {
		t.Fatalf("redelivered delta: status %d, body %s", rec.Code, rec.Body)
	}
	var sw swapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Generation != 2 || sw.EdgesAdded != 0 {
		t.Errorf("no-op delta swapped: %+v", sw)
	}
	st := stats(t, h)
	if st.Version.Generation != 2 || st.Version.Swaps != 1 {
		t.Errorf("version after no-op = %+v", st.Version)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 || st.Cache.Entries == 0 {
		t.Errorf("warm cache lost after no-op delta: %+v", st.Cache)
	}
}

func TestAdminReloadEndpoint(t *testing.T) {
	// Without -kb, reload is refused.
	s := liveServer(t, "")
	if rec := postBody(t, s.Handler(), "/admin/reload", ""); rec.Code != http.StatusConflict {
		t.Errorf("reload without -kb: status = %d", rec.Code)
	}

	// With a file: delta away from the file's content, then reload back.
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := os.WriteFile(path, []byte(liveBaseTSV), 0o644); err != nil {
		t.Fatal(err)
	}
	s = liveServer(t, path)
	h := s.Handler()
	fp1 := stats(t, h).Version.Fingerprint
	if rec := postBody(t, h, "/admin/delta", "edge\tc\td\tknows\n"); rec.Code != http.StatusOK {
		t.Fatalf("delta failed: %s", rec.Body)
	}
	if rec := get(t, h, "/admin/reload"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /admin/reload: status = %d", rec.Code)
	}
	rec := postBody(t, h, "/admin/reload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload status = %d, body %s", rec.Code, rec.Body)
	}
	var sw swapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Generation != 3 || sw.Fingerprint != fp1 {
		t.Errorf("reload swap = %+v, want generation 3 with the file's fingerprint %s", sw, fp1)
	}
	if st := stats(t, h); st.Version.Reloads != 1 || st.Version.Swaps != 2 {
		t.Errorf("version after reload = %+v", st.Version)
	}

	// A vanished file fails the reload and keeps the current snapshot.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if rec := postBody(t, h, "/admin/reload", ""); rec.Code != http.StatusInternalServerError {
		t.Errorf("reload of missing file: status = %d", rec.Code)
	}
	if st := stats(t, h); st.Version.Generation != 3 {
		t.Errorf("failed reload moved generation to %d", st.Version.Generation)
	}
}

// TestDeltaIngestionSoak is the CI soak: a small-preset synthetic KB
// (~11K relationships) served over HTTP while a stream of localized
// deltas applies through /admin/delta under concurrent /explain
// traffic. Run with -race it exercises the overlay build, compaction
// policy and per-generation caches against live readers at a realistic
// graph size; its own assertions check that every request succeeds,
// every delta lands as the expected generation, and the /stats live
// section stays coherent.
func TestDeltaIngestionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak generates a preset KB and streams deltas; skip under -short")
	}
	genOpt, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(genOpt)
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	store, err := rex.OpenStore(path, rex.Options{TopK: 10, MaxPatternSize: 3, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := New(store, Config{KBPath: path, Timeout: time.Minute, MaxBatch: 8}).Handler()

	sampled := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 2, Seed: 43})
	if len(sampled) == 0 {
		t.Fatal("no pairs sampled")
	}
	const (
		numDeltas   = 24
		opsPerDelta = 30
		numReaders  = 3
	)

	// Warm the generation-1 cache so the first swap replaces a warm cache
	// even if the readers below are scheduled late.
	for _, p := range sampled {
		url := "/explain?start=" + g.NodeName(p.Start) + "&end=" + g.NodeName(p.End)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm %s: status %d: %s", url, rec.Code, rec.Body)
		}
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		readErrs = make([]error, numReaders)
	)
	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				p := sampled[(i+r)%len(sampled)]
				url := "/explain?start=" + g.NodeName(p.Start) + "&end=" + g.NodeName(p.End)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK {
					readErrs[r] = fmt.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
					return
				}
			}
		}(r)
	}

	// Writer: each delta hangs a chain of fresh entities off a random
	// anchor under the "soak" label (registered by the first delta).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < numDeltas; i++ {
		var sb strings.Builder
		if i == 0 {
			sb.WriteString("label\tsoak\tU\n")
		}
		prev := g.NodeName(kb.NodeID(rng.Intn(g.NumNodes())))
		for j := 0; j < opsPerDelta/2; j++ {
			name := fmt.Sprintf("soak_%d_%d", i, j)
			fmt.Fprintf(&sb, "node\t%s\tconcept\n", name)
			fmt.Fprintf(&sb, "edge\t%s\t%s\tsoak\n", prev, name)
			prev = name
		}
		rec := postBody(t, h, "/admin/delta", sb.String())
		if rec.Code != http.StatusOK {
			t.Fatalf("delta %d: status %d, body %s", i, rec.Code, rec.Body)
		}
		var sw swapResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
			t.Fatal(err)
		}
		if sw.Generation != uint64(i+2) || !sw.Overlay {
			t.Fatalf("delta %d: swap = %+v, want overlay generation %d", i, sw, i+2)
		}
	}
	done.Store(true)
	wg.Wait()
	for r, err := range readErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}

	st := stats(t, h)
	if st.Version.Generation != numDeltas+1 || st.Version.Deltas != numDeltas {
		t.Errorf("version after soak = %+v", st.Version)
	}
	if st.Queries.Errors != 0 {
		t.Errorf("%d query errors during soak", st.Queries.Errors)
	}
	if st.Live.OverlayDepth < 0 || st.Live.OverlayDepth > numDeltas {
		t.Errorf("implausible overlay depth %d", st.Live.OverlayDepth)
	}
}

// TestLiveSwapUnderTraffic is the subsystem's acceptance test: readers
// hammer /explain while deltas stream in through /admin/delta. Run
// under -race it checks the lock-free snapshot discipline; its own
// assertions check that no request errors, no response mixes
// generations, version info lands on /stats, a query answerable only
// via an ingested edge succeeds post-swap, and pre-swap cached results
// are never served for a new snapshot.
//
// Generation-mixing is made observable by construction: delta i adds
// the path a—m<i>—b under its own fresh label k<i>, so each ingested
// path is a distinct pattern and a result computed wholly on
// generation g has exactly g explanations for (a, b) — the direct edge
// plus one per applied delta. A response whose explanation count
// disagrees with its reported generation mixed snapshots.
func TestLiveSwapUnderTraffic(t *testing.T) {
	s := liveServer(t, "")
	h := s.Handler()
	const (
		numDeltas  = 8
		numReaders = 4
	)

	// Pre-swap: (a, b) has its one direct explanation; (c, d) has none,
	// and the empty result is now cached on generation 1.
	resp, code := explain(t, h, "a", "b")
	if code != http.StatusOK || len(resp.Result.Explanations) != 1 || resp.Generation != 1 {
		t.Fatalf("pre-swap (a, b): code %d, %d explanations, generation %d",
			code, len(resp.Result.Explanations), resp.Generation)
	}
	fp1 := resp.Fingerprint
	if resp, code = explain(t, h, "c", "d"); code != http.StatusOK || len(resp.Result.Explanations) != 0 {
		t.Fatalf("pre-swap (c, d): code %d, %d explanations, want 0", code, len(resp.Result.Explanations))
	}
	explain(t, h, "c", "d") // cache the empty result on the gen-1 snapshot

	var (
		wg         sync.WaitGroup
		done       atomic.Bool
		readErrs   = make([]error, numReaders)
		maxGenSeen = make([]uint64, numReaders)
	)
	for r := 0; r < numReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			for !done.Load() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/explain?start=a&end=b", nil))
				if rec.Code != http.StatusOK {
					readErrs[r] = fmt.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				var resp explainResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					readErrs[r] = err
					return
				}
				// Atomicity of the swap: the explanation count must match
				// the generation the response claims it was computed on.
				if got, want := len(resp.Result.Explanations), int(resp.Generation); got != want {
					readErrs[r] = fmt.Errorf("generation mix: %d explanations on generation %d", got, want)
					return
				}
				// Requests in one goroutine are sequential, so the pinned
				// generation can never go backwards.
				if resp.Generation < lastGen {
					readErrs[r] = fmt.Errorf("generation went backwards: %d after %d", resp.Generation, lastGen)
					return
				}
				lastGen = resp.Generation
				maxGenSeen[r] = lastGen
			}
		}(r)
	}

	// Writer: stream deltas; delta i adds the path a—m<i>—b. The final
	// delta also ingests the c—d edge the stale-cache check needs.
	depth := 0 // the overlay depth of the last swap
	for i := 1; i <= numDeltas; i++ {
		delta := fmt.Sprintf("label\tk%d\tU\nnode\tm%d\tperson\nedge\ta\tm%d\tk%d\nedge\tm%d\tb\tk%d\n",
			i, i, i, i, i, i)
		if i == numDeltas {
			delta += "edge\tc\td\tknows\n"
		}
		rec := postBody(t, h, "/admin/delta", delta)
		if rec.Code != http.StatusOK {
			t.Fatalf("delta %d: status %d, body %s", i, rec.Code, rec.Body)
		}
		var sw swapResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sw); err != nil {
			t.Fatal(err)
		}
		if sw.Generation != uint64(i+1) {
			t.Fatalf("delta %d produced generation %d, want %d", i, sw.Generation, i+1)
		}
		// Every delta applies as an overlay. When a background fold lands
		// depends on the ratio policy and on timing, but the reported depth
		// must be consistent: one more than the last delta's, except on the
		// swap that installed a fold, which counts only the deltas since the
		// folded generation — at least this one, at most as many as before.
		if !sw.Overlay || (!sw.Compacted && sw.OverlayDepth != depth+1) ||
			(sw.Compacted && (sw.OverlayDepth < 1 || sw.OverlayDepth > depth)) {
			t.Fatalf("delta %d: overlay = %v, compacted = %v, depth = %d after %d", i, sw.Overlay, sw.Compacted, sw.OverlayDepth, depth)
		}
		depth = sw.OverlayDepth
		time.Sleep(2 * time.Millisecond) // let readers overlap several generations
	}
	done.Store(true)
	wg.Wait()
	for r, err := range readErrs {
		if err != nil {
			t.Fatalf("reader %d: %v", r, err)
		}
	}

	// Post-swap: the final generation answers with all ingested paths.
	resp, code = explain(t, h, "a", "b")
	if code != http.StatusOK || resp.Generation != numDeltas+1 || len(resp.Result.Explanations) != numDeltas+1 {
		t.Fatalf("post-swap (a, b): code %d, generation %d, %d explanations, want %d/%d",
			code, resp.Generation, len(resp.Result.Explanations), numDeltas+1, numDeltas+1)
	}
	// The query answerable only via the newly ingested edge succeeds —
	// the gen-1 cached empty result for (c, d) is not served.
	if resp, code = explain(t, h, "c", "d"); code != http.StatusOK || len(resp.Result.Explanations) == 0 {
		t.Fatalf("post-swap (c, d): code %d, %d explanations, want ≥1 via the ingested edge",
			code, len(resp.Result.Explanations))
	}

	// /stats reports the bumped generation and a changed fingerprint.
	st := stats(t, h)
	if st.Version.Generation != numDeltas+1 || st.Version.Swaps != numDeltas || st.Version.Deltas != numDeltas {
		t.Errorf("version after swaps = %+v", st.Version)
	}
	if st.Version.Fingerprint == fp1 || st.Version.Fingerprint == "" {
		t.Errorf("fingerprint did not change across swaps: %q", st.Version.Fingerprint)
	}
	if st.Queries.Errors != 0 {
		t.Errorf("%d query errors during swaps, want 0", st.Queries.Errors)
	}

	// The first delta doubles the one-edge base, so the ratio policy
	// must have compacted at least once during the run.
	if st.Live.Compactions == 0 {
		t.Error("no compactions under the ratio policy on a tiny base")
	}
}
