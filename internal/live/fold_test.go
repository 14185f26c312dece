package live

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

// newManager is NewManager for a test, failing it on an error.
func newManager(t testing.TB, g *kb.Graph, build BuildFunc) *Manager {
	t.Helper()
	m, err := NewManager(g, build)
	if err != nil {
		t.Fatal(err)
	}
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

// requireSameGraph compares a served generation with the from-scratch
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

// TestFoldMatchesRebuild is the differential of the overlay chain and
// its fold: a seeded random delta stream over kbgen's small KB through a
// Manager, against a from-scratch rebuild of every generation. In the
// seedN subtests the CompactRatio is low enough that a fold trips every
// few deltas; in "chain" nothing folds for 500 generations. One delta in
// ten is built and then refused by its commit hook, so the next one
// branches from the same source as a generation that claimed the node
// table's spare capacity and was never published. Every published
// generation — folded, stacked over a fold's arrays, or deep in the
// chain — must equal the rebuild, and so must a sample of old
// generations once the stream has appended past them. The rebuild
// applies each delta to one kb.Builder, which is built where it is
// compared — every generation, or under -short and -race every fifth of
// the chain's — and seeded again from what it built.
func TestFoldMatchesRebuild(t *testing.T) {
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
		{"", seeds, deltas, 1, 0.01},
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
				oracle := kb.NewBuilderFrom(orig)
				m := newManager(t, orig, nil)
				m.CompactRatio = mode.ratio
				var old [][2]*kb.Graph // (served, rebuilt) of every 25th generation
				folds, branches, maxDepth := 0, 0, 0
				for i := range mode.deltas {
					d := parse(t, foldDelta(rng, m.Current().Graph, orig, i))
					if len(d.Ops) == 0 {
						continue // every record drawn was skipped
					}
					if rng.Intn(10) == 0 {
						cur := m.Current()
						if _, _, _, err := m.Commit(Change{Delta: d}, Next(), func(uint64, *kb.Graph) error { return refused }); !errors.Is(err, refused) && err != nil {
							t.Fatalf("delta %d refused by its commit: %v", i, err)
						}
						if m.Current() != cur {
							t.Fatalf("delta %d: a refused commit published", i)
						}
						branches++
					}
					snap, st, _, err := m.Commit(Change{Delta: d}, Next(), nil)
					if err != nil {
						t.Fatalf("delta %d: %v", i, err)
					}
					var ost ApplyStats
					for _, op := range d.Ops {
						if err := applyOp(oracle, op, &ost); err != nil {
							t.Fatal(err)
						}
					}
					if i%mode.every == 0 || i%25 == 0 {
						want := oracle.Build()
						oracle = kb.NewBuilderFrom(want)
						requireSameGraph(t, fmt.Sprintf("delta %d", i), rng, snap.Graph, want)
						if i%25 == 0 {
							old = append(old, [2]*kb.Graph{snap.Graph, want})
						}
					}
					if depth := snap.Graph.Overlay().Depth; st.Changed() && (st.OverlayDepth != depth || st.Compacted != (depth == 0)) {
						t.Fatalf("delta %d: %+v, published at depth %d", i, st, depth)
					}
					if st.Compacted {
						folds++
					}
					maxDepth = max(maxDepth, st.OverlayDepth)
				}
				for k, pair := range old {
					requireSameGraph(t, fmt.Sprintf("generation of delta %d, at the end", 25*k), rng, pair[0], pair[1])
				}
				t.Logf("%d deltas (%d branched): %d folds, overlay depth up to %d",
					mode.deltas, branches, folds, maxDepth)
				switch {
				case branches == 0:
					t.Fatal("no delta branched from a source another build had claimed")
				case uint64(folds) != m.Compactions():
					t.Fatalf("%d deltas reported a fold, the manager counts %d", folds, m.Compactions())
				case !math.IsInf(mode.ratio, 1) && (folds < mode.deltas/20 || maxDepth < 2):
					t.Fatalf("%d folds and depth up to %d: the stream did not fold and stack over folds", folds, maxDepth)
				case math.IsInf(mode.ratio, 1) && (folds != 0 || maxDepth != int(m.Generation()-1)):
					t.Fatalf("%d folds, depth %d at generation %d: the chain folded", folds, maxDepth, m.Generation())
				}
			})
		}
	}
}
