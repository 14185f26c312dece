package pattern_test

// Differential and pinning tests for the union's emptiness mask (the
// per-Merge test of which variable pairs share a binding) and the
// semi-join behind it. They sit outside the package so they can take
// real explanations from the enumerator, and they see the merger only
// through what every caller sees: Merge's callbacks and JoinStats.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

// refCandidate is one mapping of merge(re1, re2, n) whose join is
// non-empty: the mapping (mapping[j] is the re1 variable matched to re2
// variable j+2, or -1), the merged pattern's key and its instances in
// join order.
type refCandidate struct {
	mapping []pattern.VarID
	key     pattern.Key
	insts   []pattern.Instance
}

// referenceMerge is the ∪f operator written for obviousness: every
// partial one-to-one mapping in the Merger's order, no emptiness mask,
// a nested-loop join with the seen-set the production join used to
// carry, and the merged pattern built through pattern.New.
func referenceMerge(t *testing.T, re1, re2 *pattern.Explanation, maxVars int) []refCandidate {
	t.Helper()
	p1, p2 := re1.P, re2.P
	free1, free2 := p1.NumVars()-2, p2.NumVars()-2
	if free1 == 0 || free2 == 0 {
		return nil
	}
	var out []refCandidate
	mapping := make([]pattern.VarID, free2)
	used := make([]bool, free1)
	one := func() {
		rename2 := make([]pattern.VarID, p2.NumVars())
		rename2[pattern.Start], rename2[pattern.End] = pattern.Start, pattern.End
		total := p1.NumVars()
		for j, v := range mapping {
			if v >= 0 {
				rename2[j+2] = v
			} else {
				rename2[j+2] = pattern.VarID(total)
				total++
			}
		}
		if total > maxVars {
			return
		}
		var insts []pattern.Instance
		seen := map[pattern.InstanceKey]struct{}{}
		for _, i1 := range re1.Instances {
		next:
			for _, i2 := range re2.Instances {
				for j, v := range mapping {
					if v >= 0 && i1[v] != i2[j+2] {
						continue next
					}
				}
				merged := make(pattern.Instance, total)
				copy(merged, i1)
				for v2 := 2; v2 < len(i2); v2++ {
					merged[rename2[v2]] = i2[v2]
				}
				distinct := map[kb.NodeID]struct{}{}
				for _, id := range merged {
					distinct[id] = struct{}{}
				}
				if len(distinct) != total {
					continue
				}
				if _, dup := seen[merged.Key()]; dup {
					continue
				}
				seen[merged.Key()] = struct{}{}
				insts = append(insts, merged)
			}
		}
		if len(insts) == 0 {
			return
		}
		edges := append([]pattern.Edge{}, p1.Edges()...)
		for _, e := range p2.Edges() {
			edges = append(edges, pattern.Edge{U: rename2[e.U], V: rename2[e.V], Label: e.Label})
		}
		p, err := pattern.New(p1.Schema(), total, edges)
		if err != nil {
			t.Fatalf("reference merge built an invalid pattern: %v", err)
		}
		out = append(out, refCandidate{mapping: append([]pattern.VarID{}, mapping...), key: p.Key(), insts: insts})
	}
	var rec func(j, matched int)
	rec = func(j, matched int) {
		if j == free2 {
			if matched > 0 {
				one()
			}
			return
		}
		mapping[j] = -1
		rec(j+1, matched)
		for i := 0; i < free1; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			mapping[j] = pattern.VarID(i + 2)
			rec(j+1, matched+1)
			used[i] = false
		}
		mapping[j] = -1
	}
	rec(0, 0)
	return out
}

// diffMerge runs the Merger and the reference over one (re1, re2) and
// fails the test at the first difference (see mergeDiff).
func diffMerge(t *testing.T, m *pattern.Merger, re1, re2 *pattern.Explanation, maxVars int) {
	t.Helper()
	if err := mergeDiff(t, m, re1, re2, maxVars); err != nil {
		t.Fatal(err)
	}
}

// mergeDiff runs the Merger and the reference over one (re1, re2) and
// compares, candidate by candidate, the keys offered to decide and what
// take receives under a decide that cycles Skip / Probe / Take. It
// returns the first difference.
func mergeDiff(t *testing.T, m *pattern.Merger, re1, re2 *pattern.Explanation, maxVars int) error {
	t.Helper()
	want := referenceMerge(t, re1, re2, maxVars)
	action := func(i int) pattern.MergeAction { return pattern.MergeAction(i % 3) }
	decided, taken := 0, 0
	var diff error
	fail := func(format string, args ...any) {
		if diff == nil {
			diff = fmt.Errorf("%v ∪ %v: "+format, append([]any{re1.P, re2.P}, args...)...)
		}
	}
	m.Merge(re1, re2, maxVars,
		func(k pattern.Key) pattern.MergeAction {
			if decided >= len(want) {
				fail("candidate %d offered, the reference has %d", decided, len(want))
			} else if k != want[decided].key {
				fail("candidate %d has key %v, reference %v", decided, k, want[decided].key)
			}
			decided++
			return action(decided - 1)
		},
		func(k pattern.Key, ex *pattern.Explanation) {
			// take follows its own decide call directly.
			taken++
			if decided > len(want) {
				return
			}
			c := want[decided-1]
			switch action(decided - 1) {
			case pattern.MergeSkip:
				fail("take called for a skipped candidate")
				return
			case pattern.MergeProbe:
				if ex != nil || k != c.key {
					fail("probe delivered (%v, %v), want (%v, nil)", k, ex, c.key)
				}
				return
			}
			if k != c.key || ex.P.Key() != c.key {
				fail("took key %v / pattern %v, reference %v", k, ex.P, c.key)
				return
			}
			if len(ex.Instances) != len(c.insts) {
				fail("→ %v: %d instances, reference %d", ex.P, len(ex.Instances), len(c.insts))
				return
			}
			for i, in := range ex.Instances {
				if in.Key() != c.insts[i].Key() {
					fail("→ %v: instance %d is %v, reference %v", ex.P, i, in, c.insts[i])
					return
				}
			}
		})
	if diff != nil {
		return diff
	}
	if decided != len(want) {
		return fmt.Errorf("%v ∪ %v: %d candidates offered, the reference has %d", re1.P, re2.P, decided, len(want))
	}
	wantTaken := 0
	for i := range want {
		if action(i) != pattern.MergeSkip {
			wantTaken++
		}
	}
	if taken != wantTaken {
		return fmt.Errorf("%v ∪ %v: take called %d times, want %d", re1.P, re2.P, taken, wantTaken)
	}
	return nil
}

var unionCfg = enumerate.Config{}

// smallCorpus returns, per sampled pair of the kbgen small preset, every
// minimal explanation and the path explanations among them — the two
// sides of every merge the union stage performs.
func smallCorpus(t *testing.T) (all, paths [][]*pattern.Explanation) {
	t.Helper()
	g, pairs := smallPairs(t)
	for _, p := range pairs {
		es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, p.Start, p.End, unionCfg)
		ps, _, _ := enumerate.PathsBudgeted(context.Background(), g, p.Start, p.End, unionCfg)
		all, paths = append(all, es), append(paths, ps)
	}
	return all, paths
}

// smallPairs returns the kbgen small preset and smallCorpus's pairs.
func smallPairs(t *testing.T) (*kb.Graph, []kbgen.Pair) {
	t.Helper()
	opt, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	pairs := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 4, Seed: 7})
	if len(pairs) == 0 {
		t.Fatal("no pairs sampled from the small preset")
	}
	return g, pairs
}

// fanGraph is the hand-built case for wide variables: start and end
// joined through n middle nodes by label pairs that select overlapping
// residue classes (so some joins keep a few of thousands of bindings),
// and through n further nodes by a pair of their own — a path whose
// variable binds thousands of nodes, disjoint from the first group: the
// case a fixed-width hash of the bindings saturates on.
func fanGraph(n int) (g *kb.Graph, start, end kb.NodeID) {
	gb := kb.NewBuilder()
	start, end = gb.AddNode("s", "t"), gb.AddNode("e", "t")
	label := func(name string) kb.LabelID { return gb.MustLabel(name, true) }
	a, b, c, d, e, f := label("a"), label("b"), label("c"), label("d"), label("e"), label("f")
	for i := 0; i < n; i++ {
		m := gb.AddNode(fmt.Sprintf("m%d", i), "t")
		gb.MustAddEdge(start, m, a)
		gb.MustAddEdge(m, end, b)
		if i%2 == 0 {
			gb.MustAddEdge(start, m, c)
		}
		if i%3 == 0 {
			gb.MustAddEdge(m, end, d)
		}
		o := gb.AddNode(fmt.Sprintf("o%d", i), "t")
		gb.MustAddEdge(start, o, e)
		gb.MustAddEdge(o, end, f)
	}
	g = gb.Build()
	return g, start, end
}

// TestMergeSignatureDifferential holds the masked, semi-joining Merger
// to the reference on every merge the union performs over kbgen small,
// on a graph whose variables bind thousands of nodes, and on single
// bindings a hash would confuse; and it checks that a list missing one
// distinct value is caught.
func TestMergeSignatureDifferential(t *testing.T) {
	m := pattern.NewMerger()

	t.Run("kbgen small", func(t *testing.T) {
		all, paths := smallCorpus(t)
		before := m.JoinStats()
		for i := range all {
			for _, re1 := range all[i] {
				for _, re2 := range paths[i] {
					diffMerge(t, m, re1, re2, 5)
				}
			}
			m.Reset()
		}
		j := m.JoinStats().Sub(before)
		if j.Run == 0 || j.Skipped == 0 {
			t.Fatalf("join stats %+v: the corpus must exercise both the join and the mask", j)
		}
		t.Logf("%d pairs: %d joins run, %d variable pairs ruled out", len(all), j.Run, j.Skipped)
	})

	t.Run("saturated", func(t *testing.T) {
		g, s, e := fanGraph(2000)
		all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, unionCfg)
		paths, _, _ := enumerate.PathsBudgeted(context.Background(), g, s, e, unionCfg)
		if len(paths) != 5 || len(all) <= len(paths) {
			t.Fatalf("fan graph gave %d paths, %d explanations; want 5 paths and merged ones", len(paths), len(all))
		}
		var wide, far *pattern.Explanation // a→b over the m nodes, e→f over the o nodes
		for _, p := range paths {
			if p.Count() == 2000 {
				if g.NodeName(p.Instances[0][2])[0] == 'm' {
					wide = p
				} else {
					far = p
				}
			}
		}
		before := m.JoinStats()
		diffMerge(t, m, wide, far, 5)
		if j := m.JoinStats().Sub(before); j != (pattern.JoinStats{Skipped: 1}) {
			t.Fatalf("join stats %+v for two disjoint 2000-node variables: want the mask to rule the pair out, unjoined", j)
		}
		for _, re1 := range all {
			for _, re2 := range paths {
				diffMerge(t, m, re1, re2, 5)
			}
		}
		m.Reset()
	})

	t.Run("collision", func(t *testing.T) {
		g, s, e := fanGraph(1)
		paths, _, _ := enumerate.PathsBudgeted(context.Background(), g, s, e, unionCfg)
		p1, p2 := paths[0].P, paths[1].P
		x := kb.NodeID(1000)
		re1 := pattern.NewExplanation(p1, []pattern.Instance{{s, e, x}})
		// Every other node is told from x without a join, including the
		// ones a fixed-width hash of the bindings would confuse with it.
		for y := x + 1; y < x+1000; y++ {
			re2 := pattern.NewExplanation(p2, []pattern.Instance{{s, e, y}})
			before := m.JoinStats()
			diffMerge(t, m, re1, re2, 5)
			if j := m.JoinStats().Sub(before); j != (pattern.JoinStats{Skipped: 1}) {
				t.Fatalf("join stats %+v for bindings %d and %d: want the pair ruled out, unjoined", j, x, y)
			}
		}
		// Same node on both sides: the join must run and keep it.
		re2 := pattern.NewExplanation(p2, []pattern.Instance{{s, e, x}})
		before := m.JoinStats()
		diffMerge(t, m, re1, re2, 5)
		if j := m.JoinStats().Sub(before); j != (pattern.JoinStats{Run: 1}) {
			t.Fatalf("join stats %+v for a shared binding: want one join", j)
		}
		if got := pattern.Merge(re1, re2, 5); len(got) != 1 || got[0].Count() != 1 {
			t.Fatalf("merging on a shared node gave %d explanations", len(got))
		}
		m.Reset()
	})

	t.Run("mutation", func(t *testing.T) {
		// For every merge with a candidate that matches a variable pair
		// through exactly one shared node, drop that node from the path
		// side's list: the Merger must then disagree with the reference.
		all, paths := smallCorpus(t)
		mutants := 0
		for i := range all {
			for _, re1 := range all[i] {
				for _, re2 := range paths[i] {
					v, x, ok := soleWitness(t, re1, re2)
					if !ok {
						continue
					}
					mm := pattern.NewMerger()
					pattern.DropBinding(mm, re2, v, x)
					if err := mergeDiff(t, mm, re1, re2, 5); err == nil {
						t.Fatalf("%v ∪ %v: dropping node %d from variable %d's list went unnoticed", re1.P, re2.P, x, v)
					}
					mutants++
				}
			}
		}
		if mutants == 0 {
			t.Fatal("the corpus has no candidate matched through a single shared node")
		}
		t.Logf("%d mutants caught", mutants)
	})
}

// soleWitness finds, in the reference's first candidate of re1 ∪ re2, a
// matched pair whose variables share exactly one bound node: the re2
// variable and that node.
func soleWitness(t *testing.T, re1, re2 *pattern.Explanation) (pattern.VarID, kb.NodeID, bool) {
	t.Helper()
	want := referenceMerge(t, re1, re2, 5)
	if len(want) == 0 {
		return 0, 0, false
	}
	for j, v1 := range want[0].mapping {
		if v1 < 0 {
			continue
		}
		bound := map[kb.NodeID]bool{}
		for _, in := range re1.Instances {
			bound[in[v1]] = true
		}
		shared := map[kb.NodeID]bool{}
		for _, in := range re2.Instances {
			if bound[in[j+2]] {
				shared[in[j+2]] = true
			}
		}
		if len(shared) == 1 {
			for x := range shared {
				return pattern.VarID(j + 2), x, true
			}
		}
	}
	return 0, 0, false
}

// TestMergeSharedExplanations merges the same explanations on two
// goroutines at once, each with its own pooled Merger: an Explanation
// is only read by a merge, so under -race the two runs must neither
// race nor disagree.
func TestMergeSharedExplanations(t *testing.T) {
	all, paths := smallCorpus(t)
	run := func() []string {
		var keys []string
		for i := range all {
			for _, re1 := range all[i] {
				for _, re2 := range paths[i] {
					for _, ex := range pattern.Merge(re1, re2, 5) {
						keys = append(keys, fmt.Sprintf("%v %d", ex.P.Key(), ex.Count()))
					}
				}
			}
		}
		return keys
	}
	var wg sync.WaitGroup
	var got [2][]string
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run()
		}()
	}
	wg.Wait()
	if len(got[0]) == 0 || len(got[0]) != len(got[1]) {
		t.Fatalf("concurrent merges produced %d and %d explanations", len(got[0]), len(got[1]))
	}
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			t.Fatalf("concurrent merges of shared explanations disagree: %s vs %s", got[0][i], got[1][i])
		}
	}
}

// TestMergedInstancesNeverDuplicate pins what the join's seen-set used
// to guard, and what lets enumeration return instance lists without a
// de-duplicating pass: a merged instance carries both of its inputs
// whole, so duplicate-free inputs cannot produce one twice, and every
// list enumeration returns — the path explanations of the exhaustive
// join and of the budgeted frontier, and the unions over each — holds
// each instance once.
func TestMergedInstancesNeverDuplicate(t *testing.T) {
	distinct := func(what string, ex *pattern.Explanation) {
		t.Helper()
		seen := make(map[pattern.InstanceKey]struct{}, len(ex.Instances))
		for _, in := range ex.Instances {
			if _, dup := seen[in.Key()]; dup {
				t.Fatalf("%s %v holds instance %v twice", what, ex.P, in)
			}
			seen[in.Key()] = struct{}{}
		}
	}
	check := func(re1, re2 *pattern.Explanation) {
		t.Helper()
		for _, ex := range pattern.Merge(re1, re2, 5) {
			distinct(fmt.Sprintf("%v ∪ %v →", re1.P, re2.P), ex)
		}
	}
	g, pairs := smallPairs(t)
	frontier := unionCfg
	frontier.Budget.MaxExpansions = math.MaxInt // the frontier route, never truncated
	ctx := context.Background()
	for _, p := range pairs {
		all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, p.Start, p.End, unionCfg)
		paths, _, _ := enumerate.PathsBudgeted(context.Background(), g, p.Start, p.End, unionCfg)
		fpaths, ptrunc, err := enumerate.PathsBudgeted(ctx, g, p.Start, p.End, frontier)
		if err != nil || ptrunc {
			t.Fatalf("frontier paths: truncated=%v err=%v", ptrunc, err)
		}
		fall, etrunc, err := enumerate.ExplanationsBudgeted(ctx, g, p.Start, p.End, frontier)
		if err != nil || etrunc {
			t.Fatalf("frontier explanations: truncated=%v err=%v", etrunc, err)
		}
		if len(fpaths) != len(paths) || len(fall) != len(all) {
			t.Fatalf("frontier: %d paths and %d explanations, join: %d and %d", len(fpaths), len(fall), len(paths), len(all))
		}
		for _, list := range []struct {
			what string
			es   []*pattern.Explanation
		}{{"join path", paths}, {"frontier path", fpaths}, {"join union", all}, {"frontier union", fall}} {
			for _, ex := range list.es {
				distinct(list.what, ex)
			}
		}
		for _, re1 := range all {
			for _, re2 := range paths {
				check(re1, re2)
			}
		}
	}
	// Instances that agree on every matched variable and differ only in
	// private ones: the cross product is the worst case for duplicates.
	g, s, e := fanGraph(1)
	paths1, _, _ := enumerate.PathsBudgeted(context.Background(), g, s, e, unionCfg)
	long := pattern.MustNew(g, 4, []pattern.Edge{
		{U: pattern.Start, V: 2, Label: g.LabelByName("a")},
		{U: 2, V: 3, Label: g.LabelByName("c")},
		{U: 3, V: pattern.End, Label: g.LabelByName("b")},
	})
	re1 := pattern.NewExplanation(long, []pattern.Instance{
		{s, e, 10, 20}, {s, e, 10, 21}, {s, e, 11, 20}, {s, e, 10, 20},
	})
	re2 := pattern.NewExplanation(long, []pattern.Instance{
		{s, e, 10, 30}, {s, e, 10, 31}, {s, e, 30, 20}, {s, e, 21, 10},
	})
	check(re1, re2)
	check(re1, pattern.NewExplanation(paths1[0].P, []pattern.Instance{{s, e, 10}, {s, e, 20}}))
}

// TestMergeRejectedCandidateAllocFree: a merge whose every variable pair
// the mask rules out costs no allocation once the merger has indexed
// both explanations.
func TestMergeRejectedCandidateAllocFree(t *testing.T) {
	g, s, e := fanGraph(1)
	paths, _, _ := enumerate.PathsBudgeted(context.Background(), g, s, e, unionCfg)
	bind := func(p *pattern.Pattern, first kb.NodeID) *pattern.Explanation {
		var insts []pattern.Instance
		for id := first; id < first+8; id++ {
			insts = append(insts, pattern.Instance{s, e, id})
		}
		return pattern.NewExplanation(p, insts)
	}
	re1, re2 := bind(paths[0].P, 100), bind(paths[1].P, 200)
	m := pattern.NewMerger()
	decide := func(pattern.Key) pattern.MergeAction { return pattern.MergeTake }
	take := func(pattern.Key, *pattern.Explanation) { t.Fatal("disjoint explanations merged") }
	m.Merge(re1, re2, 5, decide, take)
	before := m.JoinStats()
	allocs := testing.AllocsPerRun(100, func() { m.Merge(re1, re2, 5, decide, take) })
	if allocs != 0 {
		t.Errorf("a rejected merge allocates %.0f times per op, want 0", allocs)
	}
	if j := m.JoinStats().Sub(before); j.Run != 0 || j.Skipped == 0 {
		t.Errorf("join stats %+v: every mapping should have been proven empty", j)
	}
}
