package oracle

import (
	"fmt"
	"slices"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

// pathList renders paths as sorted strings, so two enumerators compare
// as multisets: a path listed twice shows twice.
func pathList(paths []Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = fmt.Sprint(p.Nodes, p.Steps)
	}
	slices.Sort(out)
	return out
}

// checkPath holds a path to the contract every enumerator here owes:
// start to end, simple, of length 1..maxLen, and every step a half-edge
// the graph holds, leading to the next node.
func checkPath(t *testing.T, g *kb.Graph, p Path, start, end kb.NodeID, maxLen int) {
	t.Helper()
	if len(p.Nodes) != len(p.Steps)+1 || p.Len() < 1 || p.Len() > maxLen {
		t.Fatalf("path %v: %d nodes, %d steps, limit %d", p.Nodes, len(p.Nodes), len(p.Steps), maxLen)
	}
	if p.Nodes[0] != start || p.Last() != end {
		t.Fatalf("path %v does not run from %d to %d", p.Nodes, start, end)
	}
	for i, id := range p.Nodes {
		if slices.Contains(p.Nodes[:i], id) {
			t.Fatalf("path %v repeats node %d", p.Nodes, id)
		}
	}
	for i, he := range p.Steps {
		if he.To != p.Nodes[i+1] || !slices.Contains(g.Neighbors(p.Nodes[i]), he) {
			t.Fatalf("path %v: step %d %+v is not a half-edge of node %d", p.Nodes, i, he, p.Nodes[i])
		}
	}
}

// TestPathEnumeratorsAgree checks the two strawman path enumerators
// against each other on the sample KB: the same paths, each listed once,
// each valid — at every length limit up to the paper's pattern size 5.
func TestPathEnumeratorsAgree(t *testing.T) {
	g := kbgen.Sample()
	pairs := [][2]string{
		{"brad_pitt", "angelina_jolie"},
		{"kate_winslet", "leonardo_dicaprio"},
		{"james_cameron", "kate_winslet"},
		{"brad_pitt", "julia_roberts"},
	}
	for _, names := range pairs {
		start, end := g.NodeByName(names[0]), g.NodeByName(names[1])
		for maxLen := 1; maxLen <= 4; maxLen++ {
			naive := PathEnumNaive(g, start, end, maxLen)
			if len(naive) == 0 && maxLen == 4 {
				t.Fatalf("%v: no paths at length 4", names)
			}
			for _, p := range naive {
				checkPath(t, g, p, start, end, maxLen)
			}
			want := pathList(naive)
			if len(slices.Compact(slices.Clone(want))) != len(want) {
				t.Fatalf("%v, limit %d: PathEnumNaive lists a path twice", names, maxLen)
			}
			if got := pathList(PathEnumBasic(g, start, end, maxLen)); !slices.Equal(got, want) {
				t.Fatalf("%v, limit %d: PathEnumBasic lists %d paths, PathEnumNaive %d, or different ones", names, maxLen, len(got), len(want))
			}
		}
	}
}

// TestGroup checks Group on the paper's flagship pair: every
// explanation is a valid path pattern, and each path lands in exactly
// one of them.
func TestGroup(t *testing.T) {
	g := kbgen.Sample()
	start, end := g.NodeByName("brad_pitt"), g.NodeByName("angelina_jolie")
	paths := PathEnumNaive(g, start, end, 4)
	n := 0
	for _, ex := range Group(g, paths) {
		if !ex.P.IsPath() {
			t.Errorf("Group built a non-path pattern %v", ex.P)
		}
		if err := ex.Validate(g, start, end); err != nil {
			t.Error(err)
		}
		n += len(ex.Instances)
	}
	if n != len(paths) {
		t.Errorf("Group holds %d instances of %d paths", n, len(paths))
	}
}
