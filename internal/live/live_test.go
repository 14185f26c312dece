package live

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rex/internal/kb"
)

func baseGraph(t testing.TB) *kb.Graph {
	t.Helper()
	gb := kb.NewBuilder()
	a := gb.AddNode("a", "person")
	b := gb.AddNode("b", "person")
	gb.AddNode("c", "person")
	knows := gb.MustLabel("knows", false)
	gb.MustAddEdge(a, b, knows)
	return gb.Build()
}

func parse(t *testing.T, src string) *Delta {
	t.Helper()
	d, err := ParseDelta(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParseDelta(t *testing.T) {
	d := parse(t, strings.Join([]string{
		"# a comment",
		"",
		"node\td\tfilm",
		"label\tstarring\tD",
		"edge\ta\td\tstarring",
		"settype\ta\tdirector",
		"deledge\ta\tb\tknows",
	}, "\n"))
	kinds := []OpKind{OpAddNode, OpAddLabel, OpAddEdge, OpSetType, OpDelEdge}
	if len(d.Ops) != len(kinds) {
		t.Fatalf("parsed %d ops, want %d", len(d.Ops), len(kinds))
	}
	for i, k := range kinds {
		if d.Ops[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, d.Ops[i].Kind, k)
		}
	}
	if d.Ops[0].Line != 3 {
		t.Errorf("first op line = %d, want 3 (comments and blanks counted)", d.Ops[0].Line)
	}
}

func TestParseDeltaErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown record", "grow\ta\tb", "unknown record type"},
		{"node fields", "node\ta", "node wants 2 fields"},
		{"settype fields", "settype\ta\tb\tc", "settype wants 2 fields"},
		{"label fields", "label\tx", "label wants 2 fields"},
		{"label direction", "label\tx\tB", "direction must be D or U"},
		{"edge fields", "edge\ta\tb", "edge wants 3 fields"},
		{"deledge fields", "deledge\ta\tb\tc\td", "deledge wants 3 fields"},
		{"stray carriage return", "node\ta\tb\r\r\n", "carriage return"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseDelta(strings.NewReader(c.src))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
			if !strings.Contains(fmt.Sprint(err), "line 1") {
				t.Errorf("err %v does not name the line", err)
			}
		})
	}
}

// TestParseDeltaLineLimit pins the record size limit and what a parse
// costs: a record line may fill the scanner's buffer exactly, one byte
// more fails the parse, and an ordinary delta allocates a few kilobytes,
// not the limit.
func TestParseDeltaLineLimit(t *testing.T) {
	line := func(n int) string { // a node record of n bytes, newline included
		return "node\t" + strings.Repeat("x", n-len("node\t\tfilm\n")) + "\tfilm\n"
	}
	d, err := ParseDelta(strings.NewReader(line(maxDeltaLine) + "node\ty\tfilm\n"))
	if err != nil || len(d.Ops) != 2 {
		t.Fatalf("a record of %d bytes: %d ops, err %v", maxDeltaLine, len(d.Ops), err)
	}
	if _, err := ParseDelta(strings.NewReader(line(maxDeltaLine + 1))); err == nil {
		t.Fatalf("a record of %d bytes parsed", maxDeltaLine+1)
	}
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "node\tn%d\tconcept\nedge\ta\tn%d\tknows\n", i, i)
	}
	src := sb.String()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		if _, err := ParseDelta(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / rounds; per > 64<<10 {
		t.Errorf("parsing a 100-op delta of %d bytes allocates %d bytes, want under 64 KiB", len(src), per)
	}
}

func TestDeltaApply(t *testing.T) {
	g := baseGraph(t)
	d := parse(t, strings.Join([]string{
		"node\td\tfilm",
		"node\ta\tperson", // exists: no-op, not counted
		"label\tstarring\tD",
		"label\tknows\tU", // exists: no-op
		"edge\td\ta\tstarring",
		"edge\ta\tb\tknows", // duplicate: no-op
		"settype\tc\tdirector",
		"deledge\ta\tb\tknows",
		"deledge\ta\tc\tknows", // absent: no-op
	}, "\n"))
	g2, st, _, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	want := ApplyStats{NodesAdded: 1, LabelsAdded: 1, EdgesAdded: 1, EdgesRemoved: 1, TypesSet: 1,
		Overlay: true, OverlayDepth: 1}
	if st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}
	if !st.Changed() {
		t.Error("Changed() = false")
	}

	// The base graph is untouched.
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Errorf("base mutated: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}

	// The new graph reflects every mutation.
	if g2.NumNodes() != 4 || g2.NumEdges() != 1 {
		t.Errorf("new graph: %d nodes, %d edges, want 4, 1", g2.NumNodes(), g2.NumEdges())
	}
	dID := g2.NodeByName("d")
	aID := g2.NodeByName("a")
	if !g2.HasEdge(dID, aID, g2.LabelByName("starring")) {
		t.Error("new edge missing")
	}
	if g2.HasEdge(aID, g2.NodeByName("b"), g2.LabelByName("knows")) {
		t.Error("deleted edge still present")
	}
	if g2.Node(g2.NodeByName("c")).Type != "director" {
		t.Error("settype not applied")
	}
	if g2.Fingerprint() == g.Fingerprint() {
		t.Error("fingerprint unchanged by a mutating delta")
	}
}

func TestDeltaApplyErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"edge unknown from", "edge\tghost\tb\tknows", `unknown node "ghost"`},
		{"edge unknown to", "edge\ta\tghost\tknows", `unknown node "ghost"`},
		{"edge unknown label", "edge\ta\tb\tghost", `unknown label "ghost"`},
		{"deledge unknown node", "deledge\tghost\tb\tknows", `unknown node "ghost"`},
		{"settype unknown node", "settype\tghost\tx", `unknown node "ghost"`},
		{"label conflict", "label\tknows\tD", "registered as directed=false"},
		{"self loop", "edge\ta\ta\tknows", "self-loop"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := baseGraph(t)
			fp := g.Fingerprint()
			g2, _, _, err := parse(t, c.src).Apply(g)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
			if g2 != nil {
				t.Error("graph returned alongside an error")
			}
			if g.Fingerprint() != fp {
				t.Error("failed apply mutated the base graph")
			}
		})
	}
}

func TestManagerLifecycle(t *testing.T) {
	builds := 0
	m := newManager(t, baseGraph(t), func(*kb.Graph) (any, error) {
		builds++
		return fmt.Sprintf("payload-%d", builds), nil
	})
	s1 := m.Current()
	if s1.Generation != 1 || m.Generation() != 1 || m.Swaps() != 0 {
		t.Fatalf("initial gen/swaps = %d/%d, want 1/0", s1.Generation, m.Swaps())
	}
	if s1.Payload != "payload-1" {
		t.Fatalf("payload = %v", s1.Payload)
	}

	s2, st, err := m.ApplyDelta(parse(t, "node\td\tperson\nedge\ta\td\tknows"))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Generation != 2 || m.Swaps() != 1 {
		t.Errorf("gen/swaps = %d/%d, want 2/1", s2.Generation, m.Swaps())
	}
	if st.NodesAdded != 1 || st.EdgesAdded != 1 {
		t.Errorf("stats = %+v", st)
	}
	if s2.Fingerprint == s1.Fingerprint {
		t.Error("fingerprint unchanged across swap")
	}
	if s2.Payload != "payload-2" {
		t.Errorf("payload not rebuilt: %v", s2.Payload)
	}

	// The pinned old snapshot is still intact and immutable.
	if s1.Graph.NumNodes() != 3 || s1.Generation != 1 || s1.Payload != "payload-1" {
		t.Error("old snapshot disturbed by swap")
	}
	if m.Current() != s2 {
		t.Error("Current is not the new snapshot")
	}
}

// TestManagerNoopDeltaPublishesNothing checks delta idempotency: a
// redelivered delta whose records are all no-ops must not bump the
// generation or rebuild the payload (which would flush a warm cache).
func TestManagerNoopDeltaPublishesNothing(t *testing.T) {
	m := newManager(t, baseGraph(t), nil)
	delta := "node\ta\tperson\nedge\ta\tb\tknows\ndeledge\ta\tc\tknows\nsettype\ta\tperson\nlabel\tknows\tU"
	before := m.Current()
	snap, st, err := m.ApplyDelta(parse(t, delta))
	if err != nil {
		t.Fatal(err)
	}
	if st.Changed() {
		t.Errorf("no-op delta reported changes: %+v", st)
	}
	if snap != before || m.Generation() != 1 || m.Swaps() != 0 {
		t.Errorf("no-op delta published a new snapshot: generation %d, swaps %d", m.Generation(), m.Swaps())
	}
}

// rebuildApply replays d onto a builder seeded from base and builds the
// result from scratch: the O(graph) rebuild the overlay replaced, kept as
// its equivalence oracle. It shares applyOp with Delta.Apply, so record
// semantics and error text are identical.
func rebuildApply(d *Delta, base *kb.Graph) (*kb.Graph, ApplyStats, error) {
	b := kb.NewBuilderFrom(base)
	var st ApplyStats
	for _, op := range d.Ops {
		if err := applyOp(b, op, &st); err != nil {
			return nil, st, err
		}
	}
	return b.Build(), st, nil
}

// TestApplyRebuildMatchesOverlay pins that the overlay apply and the
// seeded-builder rebuild produce identical content, fingerprints and
// effective-change stats.
func TestApplyRebuildMatchesOverlay(t *testing.T) {
	src := strings.Join([]string{
		"node\td\tfilm",
		"label\tstarring\tD",
		"edge\td\ta\tstarring",
		"edge\td\tb\tstarring",
		"deledge\ta\tb\tknows",
		"settype\tc\tdirector",
	}, "\n")
	d := parse(t, src)
	ovG, ovSt, _, err := d.Apply(baseGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	rbG, rbSt, err := rebuildApply(d, baseGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	if ovG.Fingerprint() != rbG.Fingerprint() {
		t.Errorf("overlay fingerprint %s != rebuild %s", ovG.Fingerprint(), rbG.Fingerprint())
	}
	if !ovSt.Overlay || rbSt.Overlay {
		t.Errorf("Overlay flags: apply %+v, rebuild %+v", ovSt, rbSt)
	}
	ovSt.Overlay, ovSt.OverlayDepth = false, 0
	if ovSt != rbSt {
		t.Errorf("stats diverge: %+v vs %+v", ovSt, rbSt)
	}
}

// TestManagerCompaction drives deltas through a ratio policy and checks
// the depth bookkeeping: the delta whose generation crosses the ratio
// publishes it folded, at depth 0 with Compacted set, and the deltas
// after it stack over the folded arrays from depth 1.
func TestManagerCompaction(t *testing.T) {
	m := newManager(t, baseGraph(t), nil)
	m.CompactRatio = 1.2
	var depths []int
	var folded []int
	for i := 0; i < 7; i++ {
		d := parse(t, fmt.Sprintf("node\tx%d\tperson\nedge\ta\tx%d\tknows", i, i))
		snap, st, err := m.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Overlay {
			t.Fatalf("delta %d not applied as overlay: %+v", i, st)
		}
		depths = append(depths, st.OverlayDepth)
		if got := snap.Graph.Overlay().Depth; got != st.OverlayDepth {
			t.Fatalf("delta %d: stats depth %d != graph depth %d", i, st.OverlayDepth, got)
		}
		if st.Compacted {
			folded = append(folded, i)
		}
	}
	// Each delta adds one edge at a, whose materialised span holds all
	// of a's edges, plus one half-edge per node added since the fold.
	// Over the base's 2 half-edges the first delta materialises 3 (ratio
	// 1.5) and folds; over 4, the next two reach 4 and 6 (1.0, 1.5); over
	// 8, the next three reach 6, 8 and 10 (0.75, 1.0, 1.25); over 12, 8.
	want := []int{0, 1, 0, 1, 2, 0, 1}
	if fmt.Sprint(depths) != fmt.Sprint(want) || fmt.Sprint(folded) != "[0 2 5]" {
		t.Fatalf("depths = %v with folds at %v, want %v with folds at [0 2 5]", depths, folded, want)
	}
	if m.Compactions() != 3 {
		t.Errorf("compactions = %d, want 3", m.Compactions())
	}
	if m.Generation() != 8 {
		t.Errorf("generation = %d, want 8", m.Generation())
	}
}

// TestFailedApplyPublishesNothing pins the all-or-nothing contract: a
// delta that fails mid-apply — after several effective records — must
// not publish, bump the generation, or disturb the served graph, even
// though the partial stats are non-zero.
func TestFailedApplyPublishesNothing(t *testing.T) {
	m := newManager(t, baseGraph(t), nil)
	before := m.Current()
	d := parse(t, strings.Join([]string{
		"node\td\tfilm",          // effective
		"edge\ta\td\tknows",      // effective
		"edge\ta\tghost\tknows",  // fails here
		"node\tnever\tunreached", // never replayed
	}, "\n"))
	_, st, err := m.ApplyDelta(d)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line-3 failure", err)
	}
	// Stats-so-far are returned for diagnostics but documented undefined.
	if st.NodesAdded != 1 || st.EdgesAdded != 1 {
		t.Logf("partial stats = %+v", st)
	}
	if m.Current() != before || m.Generation() != 1 || m.Swaps() != 0 {
		t.Error("failed apply published a snapshot")
	}
	if before.Graph.NodeByName("d") != kb.InvalidNode {
		t.Error("failed apply leaked a node into the served graph")
	}
	if before.Graph.Fingerprint() != before.Fingerprint {
		t.Error("failed apply mutated the served graph")
	}
}

func TestManagerApplyErrorKeepsSnapshot(t *testing.T) {
	m := newManager(t, baseGraph(t), nil)
	before := m.Current()
	if _, _, err := m.ApplyDelta(parse(t, "edge\tghost\tb\tknows")); err == nil {
		t.Fatal("bad delta accepted")
	}
	if _, _, err := m.ApplyDelta(&Delta{}); err == nil {
		t.Fatal("empty delta accepted")
	}
	if m.Current() != before || m.Swaps() != 0 || m.Generation() != 1 {
		t.Error("failed apply disturbed the active snapshot")
	}
}

func TestManagerBuildErrorKeepsSnapshot(t *testing.T) {
	builds := 0
	m := newManager(t, baseGraph(t), func(*kb.Graph) (any, error) {
		builds++
		if builds > 1 {
			return nil, fmt.Errorf("boom")
		}
		return "ok", nil
	})
	before := m.Current()
	if _, _, err := m.ApplyDelta(parse(t, "node\td\tperson")); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
	if m.Current() != before || m.Generation() != 1 {
		t.Error("failed payload build disturbed the active snapshot")
	}
}

func TestManagerInitialBuildError(t *testing.T) {
	if _, err := NewManager(baseGraph(t), func(*kb.Graph) (any, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("NewManager swallowed build error")
	}
	if _, err := NewManager(nil, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

// TestManagerConcurrentReadersAndWriters drives lock-free reads under
// concurrent swaps; run with -race this checks the epoch discipline.
func TestManagerConcurrentReadersAndWriters(t *testing.T) {
	m := newManager(t, baseGraph(t), func(g *kb.Graph) (any, error) {
		return g.Fingerprint(), nil
	})
	const swaps = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := m.Current()
				// A pinned snapshot must be internally consistent: its
				// payload (built from its graph) matches its fingerprint.
				if s.Payload.(string) != s.Fingerprint {
					t.Errorf("torn snapshot: payload %v, fingerprint %s", s.Payload, s.Fingerprint)
					return
				}
				if got := s.Graph.Fingerprint(); got != s.Fingerprint {
					t.Errorf("graph fingerprint %s != snapshot %s", got, s.Fingerprint)
					return
				}
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		d := parse(t, fmt.Sprintf("node\tn%d\tperson\nedge\ta\tn%d\tknows", i, i))
		if _, _, err := m.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if m.Generation() != swaps+1 || m.Swaps() != swaps {
		t.Errorf("gen/swaps = %d/%d, want %d/%d", m.Generation(), m.Swaps(), swaps+1, swaps)
	}
}
