package rex

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// storeBaseTSV connects alice—bob but leaves carol and dave isolated
// from each other, so (carol, dave) only becomes explainable after a
// delta ingests the missing edge.
const storeBaseTSV = `node	alice	person
node	bob	person
node	carol	person
node	dave	person
label	knows	U
edge	alice	bob	knows
`

func newTestStore(t *testing.T, opt Options) *Store {
	t.Helper()
	k, err := ReadKB(strings.NewReader(storeBaseTSV))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreApplySwapsGeneration(t *testing.T) {
	st := newTestStore(t, Options{Measure: "size", CacheSize: 16})
	s1 := st.Current()
	if s1.Generation != 1 || st.Generation() != 1 || st.Swaps() != 0 {
		t.Fatalf("initial generation/swaps = %d/%d", s1.Generation, st.Swaps())
	}
	if s1.Fingerprint == "" {
		t.Fatal("empty fingerprint")
	}

	// (carol, dave) has no explanation on generation 1; the empty result
	// is cached on that snapshot.
	res, err := s1.Explainer.Explain("carol", "dave")
	if err != nil || len(res.Explanations) != 0 {
		t.Fatalf("pre-swap (carol, dave): res=%v err=%v, want empty", res, err)
	}
	res, err = s1.Explainer.Explain("carol", "dave")
	if err != nil {
		t.Fatal(err)
	}
	if cs := s1.Explainer.CacheStats(); cs.Hits != 1 {
		t.Fatalf("pre-swap cache hits = %d, want 1", cs.Hits)
	}

	info, err := st.Apply(strings.NewReader("edge\tcarol\tdave\tknows\n"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 || info.EdgesAdded != 1 || st.Swaps() != 1 {
		t.Fatalf("swap info = %+v, swaps = %d", info, st.Swaps())
	}
	if info.Fingerprint == s1.Fingerprint {
		t.Error("fingerprint unchanged by mutating delta")
	}
	if info.KB.Edges != 2 {
		t.Errorf("new KB edges = %d, want 2", info.KB.Edges)
	}

	// The new snapshot answers via the ingested edge — and does NOT
	// serve the old snapshot's cached empty result.
	s2 := st.Current()
	if s2.Generation != 2 {
		t.Fatalf("generation = %d, want 2", s2.Generation)
	}
	res, err = s2.Explainer.Explain("carol", "dave")
	if err != nil || len(res.Explanations) == 0 {
		t.Fatalf("post-swap (carol, dave): res=%v err=%v, want an explanation", res, err)
	}
	if cs := s2.Explainer.CacheStats(); cs.Hits != 0 || cs.Misses != 1 {
		t.Errorf("post-swap cache = %+v, want a fresh cache (0 hits, 1 miss)", cs)
	}

	// The pinned old snapshot still serves its own view.
	res, err = s1.Explainer.Explain("carol", "dave")
	if err != nil || len(res.Explanations) != 0 {
		t.Fatalf("pinned old snapshot: res=%v err=%v, want empty", res, err)
	}
}

func TestStoreApplyErrorsLeaveStoreUntouched(t *testing.T) {
	st := newTestStore(t, Options{Measure: "size"})
	fp := st.Current().Fingerprint
	cases := []string{
		"",                             // empty delta
		"edge\tghost\tbob\tknows\n",    // unknown node
		"garbage\tline\n",              // parse error
		"label\tknows\tD\n",            // directedness conflict
		"node\tonly\tnode\nnosuch\t\n", // parse error after a valid record
	}
	for _, src := range cases {
		if _, err := st.Apply(strings.NewReader(src)); err == nil {
			t.Errorf("Apply(%q) succeeded, want error", src)
		}
	}
	if st.Generation() != 1 || st.Swaps() != 0 || st.Current().Fingerprint != fp {
		t.Error("failed applies disturbed the active snapshot")
	}

	// A redelivered no-op delta succeeds but publishes nothing: same
	// generation, same snapshot, warm cache intact.
	info, err := st.Apply(strings.NewReader("edge\talice\tbob\tknows\n"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 || info.EdgesAdded != 0 || st.Swaps() != 0 {
		t.Errorf("no-op delta swapped: %+v, swaps %d", info, st.Swaps())
	}
}

// TestStoreErrorPathsPreserveState pins down the all-or-nothing
// contract in full: a failed Apply, ReloadFrom or InstallSnapshot leaves
// the generation, the fingerprint, every LiveStats counter and the warm
// result cache exactly as they were — the failed attempt is invisible to
// readers.
func TestStoreErrorPathsPreserveState(t *testing.T) {
	st := newTestStore(t, Options{Measure: "size", CacheSize: 16})
	// One successful swap first, so the counters have non-trivial values
	// a buggy error path could disturb.
	if _, err := st.Apply(strings.NewReader("edge\tcarol\tdave\tknows\n")); err != nil {
		t.Fatal(err)
	}
	snap := st.Current()
	// Warm the cache on the active snapshot.
	if _, err := snap.Explainer.Explain("carol", "dave"); err != nil {
		t.Fatal(err)
	}
	before := st.LiveStats()
	cacheBefore := snap.Explainer.CacheStats()
	gen, fp := st.Generation(), snap.Fingerprint

	if _, err := st.Apply(strings.NewReader("edge\tghost\tnobody\tknows\n")); err == nil {
		t.Fatal("bad delta accepted")
	}
	if _, err := st.ReloadFrom(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Fatal("reload from missing file succeeded")
	}
	// A file that exists but fails to parse exercises the later error
	// branch of ReloadFrom.
	bad := filepath.Join(t.TempDir(), "bad.tsv")
	if err := os.WriteFile(bad, []byte("not\ta\tvalid\tkb\tline\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReloadFrom(bad); err == nil {
		t.Fatal("reload of malformed file succeeded")
	}
	// A peer's snapshot that claims 2⁴⁰ entities in 13 bytes: refused from
	// the bytes that came, not sized from the claim (which no recover
	// survives).
	claim := "REXKB\x03\x00\x80\x80\x80\x80\x80\x20"
	if _, err := st.InstallSnapshot(strings.NewReader(claim), gen+1, ""); err == nil || !strings.Contains(err.Error(), "node count") {
		t.Fatalf("install of a snapshot claiming 2^40 nodes: %v", err)
	}

	if st.Generation() != gen || st.Current().Fingerprint != fp {
		t.Fatalf("error paths moved the snapshot: (gen %d, %s), want (gen %d, %s)",
			st.Generation(), st.Current().Fingerprint, gen, fp)
	}
	if after := st.LiveStats(); after != before {
		t.Fatalf("error paths disturbed LiveStats: %+v, want %+v", after, before)
	}
	// The warm cache still serves: same snapshot, one more hit.
	cur := st.Current()
	if _, err := cur.Explainer.Explain("carol", "dave"); err != nil {
		t.Fatal(err)
	}
	cacheAfter := cur.Explainer.CacheStats()
	if cacheAfter.Hits != cacheBefore.Hits+1 || cacheAfter.Entries != cacheBefore.Entries {
		t.Fatalf("cache disturbed by error paths: %+v -> %+v, want one more hit on the same entries",
			cacheBefore, cacheAfter)
	}
}

func TestStoreReloadFrom(t *testing.T) {
	st := newTestStore(t, Options{Measure: "size"})

	// Apply a delta, then reload from a file holding the original KB:
	// the generation keeps rising, the content returns to the original.
	fp1 := st.Current().Fingerprint
	if _, err := st.Apply(strings.NewReader("edge\tcarol\tdave\tknows\n")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := os.WriteFile(path, []byte(storeBaseTSV), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := st.ReloadFrom(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 3 || st.Swaps() != 2 {
		t.Fatalf("generation/swaps after reload = %d/%d, want 3/2", info.Generation, st.Swaps())
	}
	if info.Fingerprint != fp1 {
		t.Errorf("reloaded fingerprint %s != original %s", info.Fingerprint, fp1)
	}
	if info.NodesAdded != 0 || info.EdgesAdded != 0 {
		t.Errorf("reload reported delta counts: %+v", info)
	}

	if _, err := st.ReloadFrom(filepath.Join(t.TempDir(), "missing.tsv")); err == nil {
		t.Error("reload from missing file succeeded")
	}
	if st.Generation() != 3 {
		t.Error("failed reload bumped the generation")
	}
}

func TestOpenStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := os.WriteFile(path, []byte(storeBaseTSV), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(path, Options{Measure: "size"})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Current().KB.Stats().Nodes; got != 4 {
		t.Errorf("nodes = %d, want 4", got)
	}
	if _, err := OpenStore(filepath.Join(t.TempDir(), "missing.tsv"), Options{}); err == nil {
		t.Error("OpenStore of missing file succeeded")
	}
	if _, err := NewStore(nil, Options{}); err == nil {
		t.Error("NewStore(nil) succeeded")
	}
	k, _ := ReadKB(strings.NewReader(storeBaseTSV))
	if _, err := NewStore(k, Options{Measure: "nope"}); err == nil {
		t.Error("invalid options accepted")
	}
}

// ApplyAt is the conditional (compare-and-swap) apply the sync engine
// replays peer WAL records through: at the expected generation it
// behaves like Apply, at any other it must refuse without mutating.
func TestStoreApplyAtGenerationConflict(t *testing.T) {
	st := newTestStore(t, Options{Measure: "size", CacheSize: 16})

	info, err := st.ApplyAt(strings.NewReader("edge\tcarol\tdave\tknows\n"), 2)
	if err != nil || info.Generation != 2 {
		t.Fatalf("ApplyAt(2): gen=%d err=%v, want 2/nil", info.Generation, err)
	}
	fp := st.Current().Fingerprint

	// Replaying the same record at the now-stale expectation must hit
	// the conflict sentinel and leave the store untouched — this is the
	// double-apply the unconditional path could not prevent.
	if _, err := st.ApplyAt(strings.NewReader("edge\tcarol\tdave\tknows\n"), 2); !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("ApplyAt at stale generation: err=%v, want ErrGenerationConflict", err)
	}
	if _, err := st.ApplyAt(strings.NewReader("edge\tbob\tcarol\tknows\n"), 4); !errors.Is(err, ErrGenerationConflict) {
		t.Fatalf("ApplyAt past the next generation: err=%v, want ErrGenerationConflict", err)
	}
	if got := st.Current(); got.Generation != 2 || got.Fingerprint != fp {
		t.Fatalf("store mutated by refused ApplyAt: gen=%d fp=%s", got.Generation, got.Fingerprint)
	}

	if _, err := st.ApplyAt(strings.NewReader("edge\tbob\tcarol\tknows\n"), 3); err != nil {
		t.Fatalf("ApplyAt(3): %v", err)
	}
	if got := st.Generation(); got != 3 {
		t.Fatalf("generation = %d, want 3", got)
	}
}

// TestStoreApplyOnSwapOncePerPublish drives every mutator, each once
// publishing and once publishing nothing, and holds the OnSwap hook to
// one call per published generation: after each step the hook's calls
// equal Swaps(). A no-op Apply or ApplyAt and an install the store is
// already at or past publish nothing; the install's refusal wraps
// ErrGenerationConflict.
func TestStoreApplyOnSwapOncePerPublish(t *testing.T) {
	st := newTestStore(t, Options{Measure: "size", CacheSize: 16})
	var hooked []uint64
	st.OnSwap(func(info SwapInfo) { hooked = append(hooked, info.Generation) })
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := os.WriteFile(path, []byte(storeBaseTSV), 0o644); err != nil {
		t.Fatal(err)
	}
	// The store has no journal, so a checkpoint handle is the current
	// graph in memory and needs no Close.
	snapshot := func() *CheckpointHandle {
		h, err := st.SyncCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	gen1 := snapshot() // generation 1's graph, installed below as generation 2

	edge := "edge\tcarol\tdave\tknows\n"
	steps := []struct {
		name     string
		do       func() (SwapInfo, error)
		conflict bool
		gen      uint64 // the store's generation after the step
	}{
		{"apply", func() (SwapInfo, error) { return st.Apply(strings.NewReader(edge)) }, false, 2},
		{"apply no-op", func() (SwapInfo, error) { return st.Apply(strings.NewReader(edge)) }, false, 2},
		{"apply-at no-op", func() (SwapInfo, error) { return st.ApplyAt(strings.NewReader(edge), 3) }, false, 2},
		{"apply-at", func() (SwapInfo, error) { return st.ApplyAt(strings.NewReader("edge\tbob\tcarol\tknows\n"), 3) }, false, 3},
		{"reload", func() (SwapInfo, error) { return st.ReloadFrom(path) }, false, 4},
		{"install behind", func() (SwapInfo, error) { return st.InstallSnapshot(gen1.Reader, 2, gen1.Fingerprint) }, true, 4},
		{"install at current", func() (SwapInfo, error) {
			h := snapshot()
			return st.InstallSnapshot(h.Reader, 4, h.Fingerprint)
		}, true, 4},
		{"install ahead", func() (SwapInfo, error) {
			h := snapshot()
			return st.InstallSnapshot(h.Reader, 7, h.Fingerprint)
		}, false, 7},
		{"repair backwards", func() (SwapInfo, error) {
			if _, err := gen1.Reader.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			return st.RepairSnapshot(gen1.Reader, 2, gen1.Fingerprint)
		}, false, 2},
	}
	for _, s := range steps {
		fp := st.Current().Fingerprint
		info, err := s.do()
		switch {
		case s.conflict && !errors.Is(err, ErrGenerationConflict):
			t.Fatalf("%s: err = %v, want ErrGenerationConflict", s.name, err)
		case s.conflict && st.Current().Fingerprint != fp:
			t.Fatalf("%s: a refused install changed the graph", s.name)
		case !s.conflict && err != nil:
			t.Fatalf("%s: %v", s.name, err)
		case !s.conflict && info.Generation != s.gen:
			t.Fatalf("%s: SwapInfo generation %d, want %d", s.name, info.Generation, s.gen)
		}
		if st.Generation() != s.gen {
			t.Fatalf("%s: generation %d, want %d", s.name, st.Generation(), s.gen)
		}
		if uint64(len(hooked)) != st.Swaps() {
			t.Fatalf("%s: OnSwap called for generations %v, but the store swapped %d times", s.name, hooked, st.Swaps())
		}
	}
	if fmt.Sprint(hooked) != "[2 3 4 7 2]" {
		t.Errorf("OnSwap saw generations %v, want [2 3 4 7 2]", hooked)
	}
}
