package pattern_test

// Differential and pinning tests for the union's binding-signature
// filter. They sit outside the package so they can take real
// explanations from the enumerator, and they see the filter only through
// what every caller sees: Merge's callbacks and JoinStats.

import (
	"fmt"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/pattern"
)

// refCandidate is one mapping of merge(re1, re2, n) whose join is
// non-empty: the merged pattern's key and its instances in join order.
type refCandidate struct {
	key   pattern.Key
	insts []pattern.Instance
}

// referenceMerge is the ∪f operator written for obviousness: every
// partial one-to-one mapping in the Merger's order, no signature filter,
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
		out = append(out, refCandidate{key: p.Key(), insts: insts})
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
// compares, candidate by candidate, the keys offered to decide and what
// take receives under a decide that cycles Skip / Probe / Take.
func diffMerge(t *testing.T, m *pattern.Merger, re1, re2 *pattern.Explanation, maxVars int) {
	t.Helper()
	want := referenceMerge(t, re1, re2, maxVars)
	action := func(i int) pattern.MergeAction { return pattern.MergeAction(i % 3) }
	decided, taken := 0, 0
	m.Merge(re1, re2, maxVars,
		func(k pattern.Key) pattern.MergeAction {
			if decided >= len(want) {
				t.Fatalf("%v ∪ %v: candidate %d offered, the reference has %d", re1.P, re2.P, decided, len(want))
			}
			if k != want[decided].key {
				t.Fatalf("%v ∪ %v: candidate %d has key %v, reference %v", re1.P, re2.P, decided, k, want[decided].key)
			}
			decided++
			return action(decided - 1)
		},
		func(k pattern.Key, ex *pattern.Explanation) {
			// take follows its own decide call directly.
			c := want[decided-1]
			taken++
			switch action(decided - 1) {
			case pattern.MergeSkip:
				t.Fatalf("%v ∪ %v: take called for a skipped candidate", re1.P, re2.P)
			case pattern.MergeProbe:
				if ex != nil || k != c.key {
					t.Fatalf("%v ∪ %v: probe delivered (%v, %v), want (%v, nil)", re1.P, re2.P, k, ex, c.key)
				}
				return
			}
			if k != c.key || ex.P.Key() != c.key {
				t.Fatalf("%v ∪ %v: took key %v / pattern %v, reference %v", re1.P, re2.P, k, ex.P, c.key)
			}
			if len(ex.Instances) != len(c.insts) {
				t.Fatalf("%v ∪ %v → %v: %d instances, reference %d", re1.P, re2.P, ex.P, len(ex.Instances), len(c.insts))
			}
			for i, in := range ex.Instances {
				if in.Key() != c.insts[i].Key() {
					t.Fatalf("%v ∪ %v → %v: instance %d is %v, reference %v", re1.P, re2.P, ex.P, i, in, c.insts[i])
				}
			}
		})
	if decided != len(want) {
		t.Fatalf("%v ∪ %v: %d candidates offered, the reference has %d", re1.P, re2.P, decided, len(want))
	}
	wantTaken := 0
	for i := range want {
		if action(i) != pattern.MergeSkip {
			wantTaken++
		}
	}
	if taken != wantTaken {
		t.Fatalf("%v ∪ %v: take called %d times, want %d", re1.P, re2.P, taken, wantTaken)
	}
}

var unionCfg = enumerate.Config{PathAlg: enumerate.PathPrioritized, UnionAlg: enumerate.UnionPrune}

// smallCorpus returns, per sampled pair of the kbgen small preset, every
// minimal explanation and the path explanations among them — the two
// sides of every merge the union stage performs.
func smallCorpus(t *testing.T) (all, paths [][]*pattern.Explanation) {
	t.Helper()
	opt, err := kbgen.PresetOptions("small", 42)
	if err != nil {
		t.Fatal(err)
	}
	g := kbgen.Generate(opt)
	g.Freeze()
	for _, p := range kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: 4, Seed: 7}) {
		all = append(all, enumerate.Explanations(g, p.Start, p.End, unionCfg))
		paths = append(paths, enumerate.Paths(g, p.Start, p.End, unionCfg))
	}
	if len(all) == 0 {
		t.Fatal("no pairs sampled from the small preset")
	}
	return all, paths
}

// fanGraph is the hand-built case for wide signatures: start and end
// joined through n middle nodes by label pairs that select overlapping
// residue classes (so some joins keep a few of thousands of bindings),
// and through n further nodes by a pair of their own — a path whose
// variable binds far more nodes than a signature has bits, disjoint from
// the first group, which only the join itself can prove.
func fanGraph(n int) (g *kb.Graph, start, end kb.NodeID) {
	g = kb.New()
	start, end = g.AddNode("s", "t"), g.AddNode("e", "t")
	label := func(name string) kb.LabelID { return g.MustLabel(name, true) }
	a, b, c, d, e, f := label("a"), label("b"), label("c"), label("d"), label("e"), label("f")
	for i := 0; i < n; i++ {
		m := g.AddNode(fmt.Sprintf("m%d", i), "t")
		g.MustAddEdge(start, m, a)
		g.MustAddEdge(m, end, b)
		if i%2 == 0 {
			g.MustAddEdge(start, m, c)
		}
		if i%3 == 0 {
			g.MustAddEdge(m, end, d)
		}
		o := g.AddNode(fmt.Sprintf("o%d", i), "t")
		g.MustAddEdge(start, o, e)
		g.MustAddEdge(o, end, f)
	}
	g.Freeze()
	return g, start, end
}

// TestMergeSignatureDifferential holds the filtered, seen-less Merger to
// the reference on every merge the union performs over kbgen small, on a
// graph whose signatures saturate, and on a pair whose signatures
// collide while their bindings differ.
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
		}
		j := m.JoinStats().Sub(before)
		if j.Run == 0 || j.Skipped == 0 {
			t.Fatalf("join stats %+v: the corpus must exercise both the join and the filter", j)
		}
		t.Logf("%d pairs: %d joins run, %d proven empty", len(all), j.Run, j.Skipped)
	})

	t.Run("saturated", func(t *testing.T) {
		g, s, e := fanGraph(2000)
		all := enumerate.Explanations(g, s, e, unionCfg)
		paths := enumerate.Paths(g, s, e, unionCfg)
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
		if j := m.JoinStats().Sub(before); j.Run != 1 || j.Skipped != 0 {
			t.Fatalf("join stats %+v for two disjoint 2000-node variables: saturated signatures must leave the proof to the join", j)
		}
		for _, re1 := range all {
			for _, re2 := range paths {
				diffMerge(t, m, re1, re2, 5)
			}
		}
	})

	t.Run("collision", func(t *testing.T) {
		g, s, e := fanGraph(1)
		paths := enumerate.Paths(g, s, e, unionCfg)
		p1, p2 := paths[0].P, paths[1].P
		x := kb.NodeID(1000)
		re1 := pattern.NewExplanation(p1, []pattern.Instance{{s, e, x}})
		// The first node after x that the filter cannot tell from x: one
		// must exist within a signature's width of candidates.
		collided, separated := false, false
		for y := x + 1; y < x+1000 && !(collided && separated); y++ {
			re2 := pattern.NewExplanation(p2, []pattern.Instance{{s, e, y}})
			before := m.JoinStats()
			diffMerge(t, m, re1, re2, 5)
			switch j := m.JoinStats().Sub(before); j {
			case pattern.JoinStats{Run: 1}:
				collided = true
			case pattern.JoinStats{Skipped: 1}:
				separated = true
			default:
				t.Fatalf("join stats %+v for a single mapping", j)
			}
		}
		if !collided || !separated {
			t.Fatalf("collided=%v separated=%v: want one node the signatures confuse with %d and one they do not", collided, separated, x)
		}
		// Same node on both sides: the join must run and keep it.
		re2 := pattern.NewExplanation(p2, []pattern.Instance{{s, e, x}})
		diffMerge(t, m, re1, re2, 5)
		if got := pattern.Merge(re1, re2, 5); len(got) != 1 || got[0].Count() != 1 {
			t.Fatalf("merging on a shared node gave %d explanations", len(got))
		}
	})
}

// TestMergedInstancesNeverDuplicate pins what the join's seen-set used
// to guard: a merged instance carries both of its inputs whole, so
// duplicate-free inputs cannot produce one twice.
func TestMergedInstancesNeverDuplicate(t *testing.T) {
	check := func(re1, re2 *pattern.Explanation) {
		for _, ex := range pattern.Merge(re1, re2, 5) {
			seen := make(map[pattern.InstanceKey]struct{}, len(ex.Instances))
			for _, in := range ex.Instances {
				if _, dup := seen[in.Key()]; dup {
					t.Fatalf("%v ∪ %v → %v holds instance %v twice", re1.P, re2.P, ex.P, in)
				}
				seen[in.Key()] = struct{}{}
			}
		}
	}
	all, paths := smallCorpus(t)
	for i := range all {
		for _, re1 := range all[i] {
			for _, re2 := range paths[i] {
				check(re1, re2)
			}
		}
	}
	// Instances that agree on every matched variable and differ only in
	// private ones: the cross product is the worst case for duplicates.
	g, s, e := fanGraph(1)
	paths1 := enumerate.Paths(g, s, e, unionCfg)
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

// TestMergeRejectedCandidateAllocFree: a merge whose every mapping the
// signatures reject costs no allocation once the merger is warm.
func TestMergeRejectedCandidateAllocFree(t *testing.T) {
	g, s, e := fanGraph(1)
	paths := enumerate.Paths(g, s, e, unionCfg)
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
