package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/fail"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

// gateFolds arms live.fold to hold every fold until the test sends it
// an outcome: nil lets the fold compact, an error fails it. The buffer
// lets a test release a fold that has not reached the gate yet, and
// send a last release when no fold may be waiting. A fold reaching the
// gate reports on entered while its buffer has room.
func gateFolds() (gate chan<- error, entered <-chan struct{}) {
	g, in := make(chan error, 16), make(chan struct{}, 16)
	fail.EnableFunc("live.fold", func() error {
		select {
		case in <- struct{}{}:
		default:
		}
		return <-g
	})
	return g, in
}

// foldDelta is a random delta of every record kind over g: edges between
// random nodes (some added by the delta itself), deletions of present and
// absent edges, new nodes, retypes and a new label put to use, with the
// occasional no-op record.
func foldDelta(rng *rand.Rand, g *kb.Graph, round int) string {
	var sb strings.Builder
	var fresh []string
	node := func() string {
		if len(fresh) > 0 && rng.Intn(4) == 0 {
			return fresh[rng.Intn(len(fresh))]
		}
		return g.NodeName(kb.NodeID(rng.Intn(g.NumNodes())))
	}
	typ := func() string {
		if rng.Intn(5) == 0 {
			return fmt.Sprintf("type%d", rng.Intn(3))
		}
		return g.Node(kb.NodeID(rng.Intn(g.NumNodes()))).Type
	}
	label := func() string { return g.LabelName(kb.LabelID(rng.Intn(g.NumLabels()))) }
	edge := func(kind, lbl string) {
		if from, to := node(), node(); from != to {
			fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\n", kind, from, to, lbl)
		}
	}
	for k, n := 0, 1+rng.Intn(12); k < n; k++ {
		switch r := rng.Intn(10); {
		case r < 4:
			edge("edge", label())
		case r < 6: // delete a present edge
			id := kb.NodeID(rng.Intn(g.NumNodes()))
			if nb := g.Neighbors(id); len(nb) > 0 {
				he := nb[rng.Intn(len(nb))]
				from, to := g.NodeName(id), g.NodeName(he.To)
				if he.Dir == kb.In {
					from, to = to, from
				}
				fmt.Fprintf(&sb, "deledge\t%s\t%s\t%s\n", from, to, g.LabelName(he.Label))
			}
		case r < 7: // mostly absent: a no-op
			edge("deledge", label())
		case r < 8:
			name := fmt.Sprintf("f%dn%d", round, k)
			if rng.Intn(6) == 0 {
				name = node() // already bound: a no-op
			} else {
				fresh = append(fresh, name)
			}
			fmt.Fprintf(&sb, "node\t%s\t%s\n", name, typ())
		case r < 9:
			fmt.Fprintf(&sb, "settype\t%s\t%s\n", node(), typ())
		default:
			name := fmt.Sprintf("f%dl%d", round, k)
			dir := "U"
			if rng.Intn(2) == 0 {
				dir = "D"
			}
			fmt.Fprintf(&sb, "label\t%s\t%s\n", name, dir)
			edge("edge", name)
		}
	}
	return sb.String()
}

// requireSameGraph compares a served generation with the Clone+Freeze
// rebuild of the same content: fingerprint, snapshot bytes, Stats, the
// type index, every name, and the adjacency of a sample of nodes under
// every label.
func requireSameGraph(t *testing.T, tag string, rng *rand.Rand, got, want *kb.Graph) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %s, rebuild %s", tag, got.Fingerprint(), want.Fingerprint())
	}
	var gb, wb bytes.Buffer
	if err := got.WriteBinary(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteBinary(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: snapshot bytes differ from the rebuild's", tag)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: Stats %+v, rebuild %+v", tag, got.Stats(), want.Stats())
	}
	types := map[string]bool{"type0": true, "type1": true, "type2": true}
	for _, nd := range want.Nodes() {
		types[nd.Type] = true
		if id := got.NodeByName(nd.Name); id != nd.ID {
			t.Fatalf("%s: NodeByName(%q) = %d, rebuild %d", tag, nd.Name, id, nd.ID)
		}
	}
	for typ := range types {
		if g, w := got.NodesOfType(typ), want.NodesOfType(typ); !slices.Equal(g, w) {
			t.Fatalf("%s: NodesOfType(%q) has %d nodes, rebuild %d", tag, typ, len(g), len(w))
		}
	}
	for range 20 {
		id := kb.NodeID(rng.Intn(want.NumNodes()))
		for l := range want.NumLabels() {
			if g, w := got.NeighborsLabeled(id, kb.LabelID(l)), want.NeighborsLabeled(id, kb.LabelID(l)); !slices.Equal(g, w) {
				t.Fatalf("%s: NeighborsLabeled(%d, %d) = %v, rebuild %v", tag, id, l, g, w)
			}
		}
	}
}

// TestBackgroundFoldMatchesRebuild is the differential of the background
// fold: a seeded random delta stream over kbgen's small KB through a
// Manager that folds every third generation, each fold held for a random
// number of deltas (some failed instead), against the Clone+Freeze
// rebuild of every generation. Every published generation — over the old
// base with a fold in flight, re-based at an install, or over the folded
// arrays — must equal the rebuild.
func TestBackgroundFoldMatchesRebuild(t *testing.T) {
	defer fail.Reset()
	seeds, deltas := 6, 300
	if testing.Short() || raceEnabled {
		seeds, deltas = 2, 100
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opt, err := kbgen.PresetOptions("small", seed)
			if err != nil {
				t.Fatal(err)
			}
			want := kbgen.Generate(opt)
			want.Freeze()
			m, err := NewManager(want, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.CompactDepth = 3
			gate, _ := gateFolds()
			defer func() { // never leave a fold blocked on the gate
				gate <- nil
				m.WaitFold()
			}()
			hold := -1 // deltas the pending fold is still held for
			var folds uint64
			installs, maxDepth := 0, 0
			for i := range deltas {
				if hold == 0 {
					var outcome error
					if rng.Intn(8) == 0 {
						outcome = fail.ErrInjected
					}
					gate <- outcome
					m.WaitFold()
				}
				hold--
				d := parse(t, foldDelta(rng, want, i))
				snap, st, err := m.ApplyDelta(d)
				if err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if want, _, err = rebuildApply(d, want); err != nil {
					t.Fatal(err)
				}
				requireSameGraph(t, fmt.Sprintf("delta %d", i), rng, snap.Graph, want)
				if st.Compacted {
					installs++
				}
				maxDepth = max(maxDepth, snap.Graph.Overlay().Depth)
				if n := m.Compactions(); n > folds {
					folds, hold = n, rng.Intn(6)
				}
			}
			t.Logf("%d deltas: %d folds started, %d installed, overlay depth up to %d", deltas, folds, installs, maxDepth)
			if installs < deltas/20 || maxDepth <= m.CompactDepth {
				t.Fatalf("%d installs and depth up to %d: the stream did not exercise held folds", installs, maxDepth)
			}
		})
	}
}

// TestHeldFoldDoesNotBlockAcks: with the fold held on its goroutine,
// deltas keep publishing over the old base without waiting for it, the
// depth passes CompactDepth and no second fold starts. Once the fold
// finishes, the next delta installs it, re-basing the nine generations
// stacked since the folded one.
func TestHeldFoldDoesNotBlockAcks(t *testing.T) {
	defer fail.Reset()
	gate, _ := gateFolds()
	m, err := NewManager(baseGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	m.CompactDepth = 3
	m.CompactRatio = 100
	want := baseGraph(t)
	apply := func(i int) ApplyStats {
		t.Helper()
		d := parse(t, walDelta(i))
		snap, st, err := m.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if want, _, err = rebuildApply(d, want); err != nil {
			t.Fatal(err)
		}
		if snap.Fingerprint != want.Fingerprint() || st.OverlayDepth != snap.Graph.Overlay().Depth {
			t.Fatalf("delta %d: generation %s at depth %d (stats %d), rebuild %s", i,
				snap.Fingerprint, snap.Graph.Overlay().Depth, st.OverlayDepth, want.Fingerprint())
		}
		return st
	}
	for i := range 3 {
		apply(i) // the third reaches CompactDepth and starts the fold
	}
	// An ack that waited for the fold would hang here: the watchdog lets
	// the fold go after ten seconds and the test fails on it.
	var stuck atomic.Bool
	watchdog := time.AfterFunc(10*time.Second, func() { stuck.Store(true); gate <- fail.ErrInjected })
	for i := 3; i < 11; i++ {
		if st := apply(i); st.Compacted || st.OverlayDepth != i+1 || stuck.Load() {
			t.Fatalf("delta %d with the fold held: %+v after the watchdog fired: %v; want depth %d and no install",
				i, st, stuck.Load(), i+1)
		}
	}
	if !watchdog.Stop() {
		t.Fatal("eight acks took ten seconds with the fold held")
	}
	if m.Compactions() != 1 {
		t.Fatalf("%d folds started, want 1: the trigger must be skipped while one is in flight", m.Compactions())
	}
	gate <- nil
	m.WaitFold()
	if st := apply(11); !st.Compacted || st.OverlayDepth != 12-3 {
		t.Fatalf("the delta after the fold: %+v, want the install at depth 9", st)
	}
	// Depth 9 is past CompactDepth: the install publishes and folds again.
	if m.Compactions() != 2 {
		t.Fatalf("%d folds started after the install, want 2", m.Compactions())
	}
	gate <- nil
	m.WaitFold()
	if st := apply(12); !st.Compacted || st.OverlayDepth != 1 {
		t.Fatalf("the delta after the second fold: %+v, want the install at depth 1", st)
	}
}

// TestSwapDiscardsHeldFold: a graph swapped in wholesale while a fold is
// held drops the fold, since the new tip does not descend from the
// folded generation. The fold finishing afterwards changes nothing: the
// next delta stacks on the swapped graph, and the trigger folds again.
func TestSwapDiscardsHeldFold(t *testing.T) {
	for _, swap := range []struct {
		name string
		do   func(m *Manager, g *kb.Graph) (*Snapshot, error)
	}{
		{"SwapGraph", func(m *Manager, g *kb.Graph) (*Snapshot, error) { return m.SwapGraph(g) }},
		{"SwapGraphAt", func(m *Manager, g *kb.Graph) (*Snapshot, error) { return m.SwapGraphAt(g, m.Generation()+5, nil) }},
		{"SwapGraphRepair", func(m *Manager, g *kb.Graph) (*Snapshot, error) { return m.SwapGraphRepair(g, 2, nil) }},
	} {
		t.Run(swap.name, func(t *testing.T) {
			defer fail.Reset()
			gate, entered := gateFolds()
			m, err := NewManager(baseGraph(t), nil)
			if err != nil {
				t.Fatal(err)
			}
			m.CompactDepth = 3
			m.CompactRatio = 100
			for i := range 4 {
				if _, _, err := m.ApplyDelta(parse(t, walDelta(i))); err != nil {
					t.Fatal(err)
				}
			}
			// Swap only once the fold is held. A dropped fold that reached
			// the fail point later would take the next fold's release here,
			// or a later test's gate.
			<-entered
			swapped := baseGraph(t)
			swapped.AddNode("z", "robot")
			if _, err := swap.do(m, swapped); err != nil {
				t.Fatal(err)
			}
			gate <- nil
			m.WaitFold()
			want := swapped
			for i := 10; i < 14; i++ {
				d := parse(t, walDelta(i))
				snap, st, err := m.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				if want, _, err = rebuildApply(d, want); err != nil {
					t.Fatal(err)
				}
				if st.Compacted || st.OverlayDepth != i-9 || snap.Fingerprint != want.Fingerprint() {
					t.Fatalf("delta %d after the swap: %+v (%s), want depth %d over the swapped graph (%s)",
						i, st, snap.Fingerprint, i-9, want.Fingerprint())
				}
			}
			if m.Compactions() != 2 {
				t.Fatalf("%d folds started, want the held one and one over the swapped graph", m.Compactions())
			}
			gate <- nil
			m.WaitFold()
		})
	}
}

// TestFailedApplyLeavesFoldPending: a finished fold is installed only by
// a delta that publishes. A failing delta and a no-op delta leave it
// pending, and the next delta that changes something installs it.
func TestFailedApplyLeavesFoldPending(t *testing.T) {
	m, err := NewManager(baseGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	m.CompactDepth = 2
	m.CompactRatio = 100
	for i := range 2 {
		if _, _, err := m.ApplyDelta(parse(t, walDelta(i))); err != nil {
			t.Fatal(err)
		}
	}
	m.WaitFold()
	if _, _, err := m.ApplyDelta(parse(t, "node\tq\tperson\nedge\tghost\ta\tknows")); err == nil {
		t.Fatal("a delta naming an unknown node applied")
	}
	if snap, st, err := m.ApplyDelta(parse(t, walDelta(0))); err != nil || st.Changed() || snap.Generation != 3 {
		t.Fatalf("no-op delta: generation %d, %+v, %v", snap.Generation, st, err)
	}
	m.mu.Lock()
	pending := m.fold != nil
	m.mu.Unlock()
	if !pending {
		t.Fatal("a delta that published nothing dropped the finished fold")
	}
	if _, st, err := m.ApplyDelta(parse(t, walDelta(2))); err != nil || !st.Compacted || st.OverlayDepth != 1 {
		t.Fatalf("the next delta: %+v, %v; want the install at depth 1", st, err)
	}
}
