package enumerate

import (
	"context"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
	"rex/internal/match"
	"rex/internal/oracle"
	"rex/internal/pattern"
)

// pairNames are entity pairs from the sample KB exercising different
// connection structures: married co-stars, pure co-stars, multi-film
// collaborators, director-actor, and a sparse pair.
var pairNames = [][2]string{
	{"brad_pitt", "angelina_jolie"},
	{"brad_pitt", "tom_cruise"},
	{"kate_winslet", "leonardo_dicaprio"},
	{"james_cameron", "kate_winslet"},
	{"mel_gibson", "helen_hunt"},
	{"will_smith", "jada_pinkett_smith"},
	{"brad_pitt", "julia_roberts"},
}

func samplePair(t *testing.T, g *kb.Graph, names [2]string) (kb.NodeID, kb.NodeID) {
	t.Helper()
	s := g.NodeByName(names[0])
	e := g.NodeByName(names[1])
	if s == kb.InvalidNode || e == kb.InvalidNode {
		t.Fatalf("sample KB is missing %v", names)
	}
	return s, e
}

// resultSignature flattens an explanation list into a canonical
// comparable form: pattern canonical key → sorted instance keys.
func resultSignature(t testing.TB, es []*pattern.Explanation) map[string][]pattern.InstanceKey {
	t.Helper()
	sig := make(map[string][]pattern.InstanceKey, len(es))
	for _, ex := range es {
		key := ex.P.CanonicalKey()
		if _, dup := sig[key]; dup {
			t.Fatalf("duplicate pattern in result: %v", ex.P)
		}
		sig[key] = ex.CanonicalInstanceKeys()
	}
	return sig
}

func diffSignatures(t testing.TB, name string, want, got map[string][]pattern.InstanceKey) {
	t.Helper()
	for k, wi := range want {
		gi, ok := got[k]
		if !ok {
			t.Errorf("%s: missing pattern %q", name, k)
			continue
		}
		if len(wi) != len(gi) {
			t.Errorf("%s: pattern %q has %d instances, want %d", name, k, len(gi), len(wi))
			continue
		}
		for i := range wi {
			if wi[i] != gi[i] {
				t.Errorf("%s: pattern %q instance %d differs", name, k, i)
				break
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: extra pattern %q", name, k)
		}
	}
}

// oraclePathRoutes are the path enumerators the differentials compare:
// the oracle's two strawmen, grouped by the oracle, and the served
// search (the exhaustive join, as a plain request takes it).
var oraclePathRoutes = []struct {
	name  string
	paths func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation
}{
	{"PathEnumNaive", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
		return oracle.Group(g, oracle.PathEnumNaive(g, start, end, maxVars-1))
	}},
	{"PathEnumBasic", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
		return oracle.Group(g, oracle.PathEnumBasic(g, start, end, maxVars-1))
	}},
	{"served", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
		es, _, _ := PathsBudgeted(context.Background(), g, start, end, Config{MaxPatternSize: maxVars})
		return es
	}},
}

// TestFrameworkMatchesNaiveEnum is the central correctness test of the
// enumeration subsystem: every path-enumeration × path-union combination
// — each path route of oraclePathRoutes, combined by the oracle's
// PathUnionBasic or the served PathUnionPrune — must produce exactly the
// explanations the brute-force oracle.NaiveEnum baseline finds (same
// minimal patterns, same instance sets).
func TestFrameworkMatchesNaiveEnum(t *testing.T) {
	g := kbgen.Sample()
	unions := []struct {
		name  string
		union func(qpath []*pattern.Explanation, maxVars int) []*pattern.Explanation
	}{
		{"PathUnionBasic", oracle.PathUnionBasic},
		{"PathUnionPrune", PathUnionPrune},
	}
	for _, names := range pairNames {
		start, end := samplePair(t, g, names)
		want := resultSignature(t, oracle.NaiveEnum(g, start, end, DefaultMaxPatternSize))
		for _, pr := range oraclePathRoutes {
			for _, u := range unions {
				paths := pr.paths(g, start, end, DefaultMaxPatternSize)
				got := resultSignature(t, u.union(paths, DefaultMaxPatternSize))
				diffSignatures(t, names[0]+"/"+names[1]+" "+pr.name+"+"+u.name, want, got)
			}
		}
	}
}

// TestAllResultsMinimalWithInstances checks the framework's core
// guarantee: only minimal patterns, each with at least one valid
// instance.
func TestAllResultsMinimalWithInstances(t *testing.T) {
	g := kbgen.Sample()
	for _, names := range pairNames {
		start, end := samplePair(t, g, names)
		es, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{})
		for _, ex := range es {
			if !ex.P.Minimal() {
				t.Errorf("%v: non-minimal pattern %v", names, ex.P)
			}
			if len(ex.Instances) == 0 {
				t.Errorf("%v: pattern %v has no instances", names, ex.P)
			}
			if err := ex.Validate(g, start, end); err != nil {
				t.Errorf("%v: pattern %v: %v", names, ex.P, err)
			}
			if ex.P.NumVars() > DefaultMaxPatternSize {
				t.Errorf("%v: pattern %v exceeds size limit", names, ex.P)
			}
		}
	}
}

// TestInstancesMatchOracle verifies that the served pipeline's instance
// sets, propagated through path joins, equal what the independent
// subgraph matcher computes from scratch.
func TestInstancesMatchOracle(t *testing.T) {
	g := kbgen.Sample()
	for _, names := range pairNames {
		start, end := samplePair(t, g, names)
		es, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{})
		for _, ex := range es {
			oracle := match.Find(g, ex.P, start, end, match.Options{})
			if len(oracle) != len(ex.Instances) {
				t.Errorf("%v: pattern %v: enumerated %d instances, matcher finds %d",
					names, ex.P, len(ex.Instances), len(oracle))
				continue
			}
			want := make(map[pattern.InstanceKey]struct{}, len(oracle))
			for _, in := range oracle {
				want[in.Key()] = struct{}{}
			}
			for _, in := range ex.Instances {
				if _, ok := want[in.Key()]; !ok {
					t.Errorf("%v: pattern %v: instance %v not found by matcher", names, ex.P, in)
				}
			}
		}
	}
}

// TestPathAlgorithmsAgree compares the path enumerators directly: the
// oracle's naive enumerator against its basic one and the served join,
// plain and under a deadline that never binds.
func TestPathAlgorithmsAgree(t *testing.T) {
	g := kbgen.Sample()
	for _, names := range pairNames {
		start, end := samplePair(t, g, names)
		maxLen := DefaultMaxPatternSize - 1
		want := resultSignature(t, oracle.Group(g, oracle.PathEnumNaive(g, start, end, maxLen)))
		got := resultSignature(t, oracle.Group(g, oracle.PathEnumBasic(g, start, end, maxLen)))
		diffSignatures(t, names[0]+"/"+names[1]+" basic", want, got)
		bg := context.Background()
		for name, tc := range map[string]struct {
			ctx context.Context
			cfg Config
		}{
			"plain":            {bg, Config{}},
			"under a deadline": {neverExpires(t, bg), Config{}},
		} {
			paths, _, _ := PathsBudgeted(tc.ctx, g, start, end, tc.cfg)
			got := resultSignature(t, paths)
			diffSignatures(t, names[0]+"/"+names[1]+" "+name, want, got)
		}
	}
}

// TestKnownExplanations asserts the presence of the paper's flagship
// explanation shapes for Brad Pitt / Angelina Jolie: the spouse edge
// (Figure 4(a)), co-starring (4(b)) and starring+producing (4(c)).
func TestKnownExplanations(t *testing.T) {
	g := kbgen.Sample()
	start, end := samplePair(t, g, [2]string{"brad_pitt", "angelina_jolie"})
	es, _, _ := ExplanationsBudgeted(context.Background(), g, start, end, Config{})

	spouse := g.LabelByName(kbgen.RelSpouse)
	starring := g.LabelByName(kbgen.RelStarring)
	producedBy := g.LabelByName(kbgen.RelProducedBy)

	wantKeys := map[string]string{
		"spouse": pattern.MustNew(g, 2, []pattern.Edge{
			{U: pattern.Start, V: pattern.End, Label: spouse},
		}).CanonicalKey(),
		"costar": pattern.MustNew(g, 3, []pattern.Edge{
			{U: 2, V: pattern.Start, Label: starring},
			{U: 2, V: pattern.End, Label: starring},
		}).CanonicalKey(),
		"costar+produce": pattern.MustNew(g, 3, []pattern.Edge{
			{U: 2, V: pattern.Start, Label: starring},
			{U: 2, V: pattern.End, Label: starring},
			{U: 2, V: pattern.Start, Label: producedBy},
		}).CanonicalKey(),
	}
	found := map[string]*pattern.Explanation{}
	for _, ex := range es {
		found[ex.P.CanonicalKey()] = ex
	}
	for name, key := range wantKeys {
		ex, ok := found[key]
		if !ok {
			t.Errorf("expected %s explanation, not found", name)
			continue
		}
		if len(ex.Instances) == 0 {
			t.Errorf("%s explanation has no instances", name)
		}
	}
	// Brad and Angelina co-star in exactly one sample film.
	if ex := found[wantKeys["costar"]]; ex != nil && len(ex.Instances) != 1 {
		t.Errorf("costar explanation has %d instances, want 1 (mr_and_mrs_smith)", len(ex.Instances))
	}
}

// TestPathsAreSimple checks every path explanation instance really is a
// simple path at the instance level.
func TestPathsAreSimple(t *testing.T) {
	g := kbgen.Sample()
	start, end := samplePair(t, g, [2]string{"brad_pitt", "tom_cruise"})
	paths, _, _ := PathsBudgeted(context.Background(), g, start, end, Config{})
	for _, ex := range paths {
		if !ex.P.IsPath() {
			t.Errorf("non-path pattern from PathsBudgeted: %v", ex.P)
		}
		for _, in := range ex.Instances {
			seen := map[kb.NodeID]bool{}
			for _, id := range in {
				if seen[id] {
					t.Errorf("instance %v repeats node %v", in, id)
				}
				seen[id] = true
			}
		}
	}
}
