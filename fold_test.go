package rex

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rex/internal/fail"
	"rex/internal/kbgen"
)

// TestBackgroundFoldExplainsLikeRebuild serves a delta stream from a
// store that folds its overlay chain every third generation in the
// background, and on a sample of generations compares the served
// answers with a fresh Explainer over the Clone+Freeze rebuild of a
// store that never folds: same fingerprint, byte-identical results —
// for pairs of the base KB and pairs along the chains the deltas hang.
func TestBackgroundFoldExplainsLikeRebuild(t *testing.T) {
	deltas, every := 96, 8
	if testing.Short() || raceEnabled {
		deltas, every = 32, 8
	}
	opt := Options{Measure: "size+local-dist", TopK: 5}
	gen, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	base := kbgen.Generate(gen)
	base.Freeze()
	var pairs [][2]string
	for _, p := range kbgen.SamplePairs(base, kbgen.PairOptions{PerBucket: 1, Seed: 3}) {
		pairs = append(pairs, [2]string{base.NodeName(p.Start), base.NodeName(p.End)})
	}
	folding, err := NewStore(&KB{g: base}, opt)
	if err != nil {
		t.Fatal(err)
	}
	folding.mgr.CompactDepth = 3
	chained, err := NewStore(&KB{g: base}, opt)
	if err != nil {
		t.Fatal(err)
	}
	chained.mgr.CompactDepth, chained.mgr.CompactRatio = math.MaxInt, math.Inf(1)
	installs, answered := 0, 0
	for i, body := range ingestDeltas(base, 42, deltas) {
		info, err := folding.Apply(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chained.Apply(strings.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		if info.Compacted {
			installs++
		}
		if i%every != every-1 {
			continue
		}
		// Settle the fold in flight: the next delta installs it, so
		// installs do not depend on when the scheduler runs the fold.
		folding.mgr.WaitFold()
		served := folding.Current()
		rebuilt := chained.Current().KB.g.Clone()
		rebuilt.Freeze()
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
	t.Logf("%d deltas, %d installs, %d non-empty answers compared", deltas, installs, answered)
	if installs == 0 || answered == 0 {
		t.Fatalf("%d deltas installed %d folds and compared %d non-empty answers", deltas, installs, answered)
	}
}

// TestCrashDuringBackgroundFold crashes a durable store, folding every
// third generation, while its fold is held on the compactor (deltas
// acked past CompactDepth over the old base, checkpoints of those
// generations behind them) and after a fold was installed (generations
// and checkpoints over the folded arrays). Recovery never reads the
// compactor's output: it lands on the last acknowledged generation with
// the crash-free oracle's fingerprint, and converges on the oracle's
// final state.
func TestCrashDuringBackgroundFold(t *testing.T) {
	const nDeltas = 14
	deltas := make([]string, nDeltas)
	for i := range deltas {
		deltas[i] = soakDelta(i)
	}
	oracle := soakOracle(t, deltas)
	for _, installed := range []bool{false, true} {
		t.Run(map[bool]string{false: "held", true: "installed"}[installed], func(t *testing.T) {
			defer fail.Reset()
			dir := t.TempDir()
			st, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			st.mgr.CompactDepth = 3
			entered, release := gateFailpoint("live.fold", nil)
			released := false
			free := func() {
				if !released {
					released = true
					release()
				}
			}
			defer free()
			var acked uint64
			apply := func(i int) SwapInfo {
				t.Helper()
				info, err := st.Apply(strings.NewReader(deltas[i]))
				if err != nil {
					t.Fatalf("apply %d: %v", i, err)
				}
				acked = info.Generation
				return info
			}
			for i := range 9 {
				apply(i)
				if i == 2 {
					<-entered // the fold of generation 4 is held
				}
			}
			if depth := st.Current().KB.g.Overlay().Depth; depth != 9 {
				t.Fatalf("nine deltas with the fold held reached depth %d, want 9", depth)
			}
			if installed {
				free()
				st.mgr.WaitFold()
				if info := apply(9); !info.Compacted {
					t.Fatalf("the delta after the released fold finished did not install it: %+v", info)
				}
			}
			// The crashed store is abandoned without Close.
			st2, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer st2.Close()
			if gen := st2.Generation(); gen != acked || st2.Current().Fingerprint != oracle[gen] {
				t.Fatalf("recovered generation %d (%s), want the acknowledged %d (%s)",
					gen, st2.Current().Fingerprint, acked, oracle[acked])
			}
			for g := acked; g < nDeltas+1; g++ {
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
