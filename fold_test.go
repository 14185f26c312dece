package rex

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"rex/internal/fail"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

// TestFoldExplainsLikeRebuild serves a delta stream from a store whose
// CompactRatio folds the overlay chain every few deltas, and on a sample
// of generations compares the served answers with a fresh Explainer
// over a from-scratch rebuild (a builder seeded from the generation) of
// a store that never folds: same
// fingerprint, byte-identical results — for pairs of the base KB and
// pairs along the chains the deltas hang.
func TestFoldExplainsLikeRebuild(t *testing.T) {
	deltas, every := 96, 8
	if testing.Short() || raceEnabled {
		deltas, every = 32, 4
	}
	opt := Options{Measure: "size+local-dist", TopK: 5}
	gen, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	base := kbgen.Generate(gen)
	var pairs [][2]string
	for _, p := range kbgen.SamplePairs(base, kbgen.PairOptions{PerBucket: 1, Seed: 3}) {
		pairs = append(pairs, [2]string{base.NodeName(p.Start), base.NodeName(p.End)})
	}
	folding, err := NewStore(&KB{g: base}, opt)
	if err != nil {
		t.Fatal(err)
	}
	folding.mgr.CompactRatio = 0.03
	chained, err := NewStore(&KB{g: base}, opt)
	if err != nil {
		t.Fatal(err)
	}
	chained.mgr.CompactRatio = math.Inf(1)
	folds, answered, maxDepth := 0, 0, 0
	var depths []int // of the compared generations
	for i, body := range ingestDeltas(base, 42, deltas) {
		info, err := folding.Apply(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chained.Apply(strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		if info.Compacted {
			folds++
		}
		maxDepth = max(maxDepth, info.OverlayDepth)
		if i%every != every-1 {
			continue
		}
		served := folding.Current()
		depths = append(depths, served.KB.g.Overlay().Depth)
		rebuilt := kb.NewBuilderFrom(chained.Current().KB.g).Build()
		if served.Fingerprint != rebuilt.Fingerprint() {
			t.Fatalf("delta %d: served %s, rebuild %s", i, served.Fingerprint, rebuilt.Fingerprint())
		}
		fresh, err := NewExplainer(&KB{g: rebuilt}, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The chain this delta hung: its anchor and the node two hops on.
		var chain []string
		for _, line := range strings.Split(body, "\n") {
			if f := strings.Split(line, "\t"); f[0] == "edge" {
				chain = append(chain, f[1], f[2])
			}
		}
		check := pairs
		if len(chain) >= 4 {
			check = append(check[:len(check):len(check)], [2]string{chain[0], chain[3]})
		}
		for _, p := range check {
			got, err := served.Explainer.Explain(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Explain(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			gb, _ := got.AppendJSON(nil)
			wb, _ := want.AppendJSON(nil)
			if len(got.Explanations) > 0 {
				answered++
			}
			if !bytes.Equal(gb, wb) {
				t.Fatalf("delta %d (generation %d, depth %d): (%s, %s) served\n%s\nrebuild\n%s",
					i, served.Generation, served.KB.g.Overlay().Depth, p[0], p[1], gb, wb)
			}
		}
	}
	t.Logf("%d deltas: %d folds, depth up to %d; compared at depths %v, %d non-empty answers",
		deltas, folds, maxDepth, depths, answered)
	if folds == 0 || maxDepth < 2 || !slices.Contains(depths, 0) || answered == 0 {
		t.Fatalf("%d deltas folded %d times, stacked up to depth %d, compared at depths %v and compared %d non-empty answers",
			deltas, folds, maxDepth, depths, answered)
	}
}

// TestCrashAroundFold crashes a durable store around the delta whose
// generation crosses the compaction ratio and is folded under the
// writer's lock. In "publish" the tripping delta crashes at the
// live.publish fail point: its WAL record is durable, but it was never
// acknowledged and no fold was published. In "folded" the crash comes
// three deltas after the fold was published (generations and
// checkpoints over the folded arrays). Recovery lands on the crash-free
// oracle's fingerprint — at the acknowledged generation, or one past it
// when the unacknowledged record is on disk — and converges on the
// oracle's final state.
func TestCrashAroundFold(t *testing.T) {
	const nDeltas, trip = 14, 5
	deltas := make([]string, nDeltas)
	for i := range deltas {
		deltas[i] = soakDelta(i)
	}
	oracle := soakOracle(t, deltas)
	for _, published := range []bool{false, true} {
		t.Run(map[bool]string{false: "publish", true: "folded"}[published], func(t *testing.T) {
			defer fail.Reset()
			dir := t.TempDir()
			st, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			// Each delta adds a node with one edge at alice, so over the
			// base's 2 half-edges the k-th delta materialises 2k+1: the
			// sixth (delta trip) is the first to cross a ratio of 6. Over
			// the folded arrays the ratio stays below 1.
			st.mgr.CompactRatio = 6
			var acked uint64
			apply := func(i int) SwapInfo {
				t.Helper()
				info, err := st.Apply(strings.NewReader(deltas[i]))
				if err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				if info.Compacted != (i == trip) || info.Compacted != (info.OverlayDepth == 0) {
					t.Fatalf("apply %d: %+v, want a fold at delta %d only", i, info, trip)
				}
				acked = info.Generation
				return info
			}
			for i := range trip {
				apply(i)
			}
			var want uint64
			if published {
				for i := trip; i < trip+4; i++ {
					apply(i)
				}
				want = acked
			} else {
				fail.EnableTimes("live.publish", 1)
				if _, err := st.Apply(strings.NewReader(deltas[trip])); !errors.Is(err, fail.ErrInjected) {
					t.Fatalf("the tripping delta with live.publish armed: %v", err)
				}
				fail.Reset()
				if st.Generation() != acked || st.LiveStats().Compactions != 0 {
					t.Fatalf("a failed publish moved the store: generation %d, %d compactions",
						st.Generation(), st.LiveStats().Compactions)
				}
				want = acked + 1 // the durable, unacknowledged record replays
			}
			// The crashed store is abandoned without Close.
			st2, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer st2.Close()
			if gen := st2.Generation(); gen != want || st2.Current().Fingerprint != oracle[gen] {
				t.Fatalf("recovered generation %d (%s), want %d (%s) with %d acknowledged",
					gen, st2.Current().Fingerprint, want, oracle[want], acked)
			}
			for g := want; g < nDeltas+1; g++ {
				info, err := st2.Apply(strings.NewReader(deltas[g-1]))
				if err != nil {
					t.Fatal(err)
				}
				if info.Fingerprint != oracle[g+1] {
					t.Fatalf("post-recovery generation %d = %s, want %s", g+1, info.Fingerprint, oracle[g+1])
				}
			}
			st.Close() //nolint:errcheck // the crashed store's journal
		})
	}
}
