package live

import (
	"bytes"
	"errors"
	"fmt"
	"math"
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
// gate reports on entered while its buffer has room. The fail point is
// global, so a fold of another test's manager would take a release meant
// for this test's fold: build managers with newManager, which finishes
// their folds when the test ends. At cleanup the gate is disarmed and
// lets every fold it still holds compact; arm it after newManager, so
// that this cleanup runs before the manager waits for its fold.
func gateFolds(t testing.TB) (gate chan<- error, entered <-chan struct{}) {
	g, in := make(chan error, 16), make(chan struct{}, 16)
	fail.EnableFunc("live.fold", func() error {
		select {
		case in <- struct{}{}:
		default:
		}
		return <-g
	})
	t.Cleanup(func() {
		fail.Disable("live.fold")
		close(g) // a held fold receives nil from the closed gate
	})
	return g, in
}

// newManager is NewManager for a test: the manager's fold in flight, if
// any, is finished when the test ends, so it cannot reach a fail point a
// later test arms.
func newManager(t testing.TB, g *kb.Graph, build BuildFunc) *Manager {
	t.Helper()
	m, err := NewManager(g, build)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.WaitFold)
	return m
}

// foldDelta is a random delta of every record kind over g: edges between
// random nodes (some added by the delta itself), deletions of present and
// absent edges, new nodes, retypes and a new label put to use, with the
// occasional no-op record. Retypes go to any node, including ones added
// by earlier deltas, or move one of orig's first eight nodes to another
// type or back to its type in orig.
func foldDelta(rng *rand.Rand, g, orig *kb.Graph, round int) string {
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
			switch pool := kb.NodeID(rng.Intn(8)); rng.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "settype\t%s\t%s\n", node(), typ())
			case 1:
				fmt.Fprintf(&sb, "settype\t%s\t%s\n", orig.NodeName(pool), typ())
			default: // back to its type in orig, or a no-op
				fmt.Fprintf(&sb, "settype\t%s\t%s\n", orig.NodeName(pool), orig.Node(pool).Type)
			}
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

// TestBackgroundFoldMatchesRebuild is the differential of the overlay
// chain and its background fold: a seeded random delta stream over
// kbgen's small KB through a Manager, against the Clone+Freeze rebuild of
// every generation. In the seedN subtests every generation with a patch
// trips the fold policy and each fold is held for a random number of
// deltas (some failed instead); in "chain" nothing folds for 500
// generations. One
// delta in ten is built and then refused by its commit hook, so the next
// one branches from the same source as a generation that claimed the
// node table's spare capacity and was never published. Every published
// generation — over the old base with a fold in flight, re-based at an
// install, over the folded arrays, or deep in the chain — must equal the
// rebuild, and so must a sample of old generations once the stream has
// appended past them. The rebuild applies each delta to one unfrozen
// graph with the ordinary mutators and is cloned and frozen where it is
// compared: every generation, or under -short and -race every fifth of
// the chain's.
func TestBackgroundFoldMatchesRebuild(t *testing.T) {
	seeds, deltas, every := 6, 300, 1
	if testing.Short() || raceEnabled {
		seeds, deltas, every = 2, 100, 5
	}
	refused := errors.New("refused")
	for _, mode := range []struct {
		prefix               string // of the subtests' names: seed1, seed2, …, chain/seed1
		seeds, deltas, every int
		ratio                float64 // the manager's CompactRatio
	}{
		{"", seeds, deltas, 1, 0},
		{"chain/", 1, 500, every, math.Inf(1)},
	} {
		for seed := int64(1); seed <= int64(mode.seeds); seed++ {
			t.Run(fmt.Sprintf("%sseed%d", mode.prefix, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opt, err := kbgen.PresetOptions("small", seed)
				if err != nil {
					t.Fatal(err)
				}
				orig := kbgen.Generate(opt)
				orig.Freeze()
				oracle := orig.Clone()
				m := newManager(t, orig, nil)
				m.CompactRatio = mode.ratio
				gate, _ := gateFolds(t)
				hold := -1 // deltas the pending fold is still held for
				var folds uint64
				var old [][2]*kb.Graph // (served, rebuilt) of every 25th generation
				installs, branches, maxDepth := 0, 0, 0
				for i := range mode.deltas {
					if hold == 0 {
						var outcome error
						if rng.Intn(8) == 0 {
							outcome = fail.ErrInjected
						}
						gate <- outcome
						m.WaitFold()
					}
					hold--
					d := parse(t, foldDelta(rng, oracle, orig, i))
					if len(d.Ops) == 0 {
						continue // every record drawn was skipped
					}
					if rng.Intn(10) == 0 {
						cur := m.Current()
						if _, _, err := m.ApplyDeltaCommit(d, func(uint64, *kb.Graph) error { return refused }); !errors.Is(err, refused) && err != nil {
							t.Fatalf("delta %d refused by its commit: %v", i, err)
						}
						if m.Current() != cur {
							t.Fatalf("delta %d: a refused commit published", i)
						}
						branches++
					}
					snap, st, err := m.ApplyDelta(d)
					if err != nil {
						t.Fatalf("delta %d: %v", i, err)
					}
					var ost ApplyStats
					for _, op := range d.Ops {
						if err := applyOp(graphAdapter{oracle}, op, &ost); err != nil {
							t.Fatal(err)
						}
					}
					if i%mode.every == 0 || i%25 == 0 {
						want := oracle.Clone()
						want.Freeze()
						requireSameGraph(t, fmt.Sprintf("delta %d", i), rng, snap.Graph, want)
						if i%25 == 0 {
							old = append(old, [2]*kb.Graph{snap.Graph, want})
						}
					}
					if st.Compacted {
						installs++
					}
					maxDepth = max(maxDepth, snap.Graph.Overlay().Depth)
					if n := m.Compactions(); n > folds {
						folds, hold = n, rng.Intn(6)
					}
				}
				for k, pair := range old {
					requireSameGraph(t, fmt.Sprintf("generation of delta %d, at the end", 25*k), rng, pair[0], pair[1])
				}
				t.Logf("%d deltas (%d branched): %d folds started, %d installed, overlay depth up to %d",
					mode.deltas, branches, folds, installs, maxDepth)
				switch {
				case branches == 0:
					t.Fatal("no delta branched from a source another build had claimed")
				case mode.ratio == 0 && (installs < mode.deltas/20 || maxDepth <= 3):
					t.Fatalf("%d installs and depth up to %d: the stream did not exercise held folds", installs, maxDepth)
				case mode.ratio > 0 && (folds != 0 || maxDepth != int(m.Generation()-1)):
					t.Fatalf("%d folds, depth %d at generation %d: the chain folded", folds, maxDepth, m.Generation())
				}
			})
		}
	}
}

// TestHeldFoldDoesNotBlockAcks: with the fold held on its goroutine,
// deltas keep publishing over the old base without waiting for it, and
// no second fold starts although every generation trips the policy.
// Once the fold finishes, the next delta installs it, re-basing the ten
// generations stacked since the folded one.
func TestHeldFoldDoesNotBlockAcks(t *testing.T) {
	m := newManager(t, baseGraph(t), nil)
	gate, _ := gateFolds(t)
	m.CompactRatio = 0 // every generation with a patch trips the fold
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
	apply(0) // starts the fold
	// An ack that waited for the fold would hang here: the watchdog lets
	// the fold go after ten seconds and the test fails on it.
	var stuck atomic.Bool
	watchdog := time.AfterFunc(10*time.Second, func() { stuck.Store(true); gate <- fail.ErrInjected })
	for i := 1; i < 11; i++ {
		if st := apply(i); st.Compacted || st.OverlayDepth != i+1 || stuck.Load() {
			t.Fatalf("delta %d with the fold held: %+v after the watchdog fired: %v; want depth %d and no install",
				i, st, stuck.Load(), i+1)
		}
	}
	if !watchdog.Stop() {
		t.Fatal("ten acks took ten seconds with the fold held")
	}
	if m.Compactions() != 1 {
		t.Fatalf("%d folds started, want 1: the trigger must be skipped while one is in flight", m.Compactions())
	}
	gate <- nil
	m.WaitFold()
	if st := apply(11); !st.Compacted || st.OverlayDepth != 12-1 {
		t.Fatalf("the delta after the fold: %+v, want the install at depth 11", st)
	}
	// The installed generation has a patch: it folds again.
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
			m := newManager(t, baseGraph(t), nil)
			gate, entered := gateFolds(t)
			m.CompactRatio = 0 // every generation with a patch trips the fold
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
		})
	}
}

// TestFailedApplyLeavesFoldPending: a finished fold is installed only by
// a delta that publishes. A failing delta and a no-op delta leave it
// pending, and the next delta that changes something installs it.
func TestFailedApplyLeavesFoldPending(t *testing.T) {
	m := newManager(t, baseGraph(t), nil)
	m.CompactRatio = 0 // every generation with a patch trips the fold
	if _, _, err := m.ApplyDelta(parse(t, walDelta(0))); err != nil {
		t.Fatal(err)
	}
	m.WaitFold()
	if _, _, err := m.ApplyDelta(parse(t, "node\tq\tperson\nedge\tghost\ta\tknows")); err == nil {
		t.Fatal("a delta naming an unknown node applied")
	}
	if snap, st, err := m.ApplyDelta(parse(t, walDelta(0))); err != nil || st.Changed() || snap.Generation != 2 {
		t.Fatalf("no-op delta: generation %d, %+v, %v", snap.Generation, st, err)
	}
	m.mu.Lock()
	pending := m.fold != nil
	m.mu.Unlock()
	if !pending {
		t.Fatal("a delta that published nothing dropped the finished fold")
	}
	if _, st, err := m.ApplyDelta(parse(t, walDelta(1))); err != nil || !st.Compacted || st.OverlayDepth != 1 {
		t.Fatalf("the next delta: %+v, %v; want the install at depth 1", st, err)
	}
}
