package rex

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// clusteredKB builds n disconnected four-node clusters, each with two
// parallel two-hop paths between its (s_i, t_i) pair:
//
//	s_i --rel-- m1_i --rel-- t_i
//	s_i --rel-- m2_i --rel-- t_i
//
// Clusters share no nodes or edges, so a delta inside cluster 0 cannot
// change any other cluster's answer.
func clusteredKB(t *testing.T, n int) *KB {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("label\trel\tU\nlabel\textra\tU\n")
	for i := 0; i < n; i++ {
		for _, v := range []string{"s", "m1", "m2", "t"} {
			fmt.Fprintf(&sb, "node\t%s%d\tperson\n", v, i)
		}
		fmt.Fprintf(&sb, "edge\ts%d\tm1%d\trel\n", i, i)
		fmt.Fprintf(&sb, "edge\tm1%d\tt%d\trel\n", i, i)
		fmt.Fprintf(&sb, "edge\ts%d\tm2%d\trel\n", i, i)
		fmt.Fprintf(&sb, "edge\tm2%d\tt%d\trel\n", i, i)
	}
	k, err := ReadKB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

var (
	localSwapOpt  = Options{Measure: "size+local-dist", TopK: 10, CacheSize: 32}
	globalSwapOpt = Options{Measure: "global-dist", TopK: 5, CacheSize: 32, GlobalSamples: 8}
)

const (
	edgeDelta   = "edge\ts0\tt0\textra\n"
	nodeDelta   = "node\tnew0\tperson\nedge\ts0\tnew0\textra\n"
	retypeDelta = "settype\tm10\trobot\n"
)

// TestSwapStartsCold: a delta that adds an edge or a node publishes a
// generation whose result cache is empty, and every answer on that
// generation equals a fresh Explainer's on its graph — including the
// pairs the delta cannot reach, and the touched pair, which must see
// the new edge.
func TestSwapStartsCold(t *testing.T) {
	for _, delta := range []string{edgeDelta, nodeDelta} {
		checkSwapStartsCold(t, localSwapOpt, delta)
	}
}

// TestSwapStartsColdAfterRetype: a retype, which changes what every
// pattern through the node matches, starts the next generation cold
// under local and global measures alike.
func TestSwapStartsColdAfterRetype(t *testing.T) {
	for _, opt := range []Options{localSwapOpt, globalSwapOpt} {
		checkSwapStartsCold(t, opt, retypeDelta)
	}
}

// TestSwapStartsColdUnderGlobalMeasure: under a global-distribution
// measure, whose sampled starts span the whole graph, an added edge or
// node starts the next generation cold and its answers equal a fresh
// Explainer's.
func TestSwapStartsColdUnderGlobalMeasure(t *testing.T) {
	for _, delta := range []string{edgeDelta, nodeDelta} {
		checkSwapStartsCold(t, globalSwapOpt, delta)
	}
}

// checkSwapStartsCold warms a store on every cluster's pair, applies
// delta and checks that the published generation's cache is empty and
// that its answers equal a fresh Explainer's on the new graph.
func checkSwapStartsCold(t *testing.T, opt Options, delta string) {
	t.Helper()
	const clusters = 6
	name := fmt.Sprintf("%s/%q", opt.Measure, delta)
	st := mustStore(t, clusteredKB(t, clusters), opt)
	for i := 0; i < clusters; i++ {
		mustExplain(t, st, fmt.Sprintf("s%d", i), fmt.Sprintf("t%d", i))
	}
	if got := st.Current().Explainer.CacheStats().Entries; got != clusters {
		t.Fatalf("%s: warm cache entries = %d, want %d", name, got, clusters)
	}
	info, err := st.Apply(strings.NewReader(delta))
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Current()
	if info.Generation != 2 || snap.Generation != 2 {
		t.Fatalf("%s: published generation %d, current %d; want 2", name, info.Generation, snap.Generation)
	}
	if cs := snap.Explainer.CacheStats(); cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("%s: new generation's cache = %+v, want empty", name, cs)
	}
	fresh, err := NewExplainer(snap.KB, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clusters; i++ {
		start, end := fmt.Sprintf("s%d", i), fmt.Sprintf("t%d", i)
		got := mustExplain(t, st, start, end)
		want, err := fresh.Explain(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pair %d diverges from a fresh explainer\ngot:  %+v\nwant: %+v", name, i, got, want)
		}
	}
	if delta == edgeDelta {
		found := false
		for _, ex := range mustExplain(t, st, "s0", "t0").Explanations {
			found = found || ex.Size == 2
		}
		if !found {
			t.Errorf("%s: touched pair lacks the new direct-edge explanation", name)
		}
	}
}

func mustStore(t *testing.T, k *KB, opt Options) *Store {
	t.Helper()
	st, err := NewStore(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustExplain(t *testing.T, st *Store, start, end string) *Result {
	t.Helper()
	res, err := st.Current().Explainer.Explain(start, end)
	if err != nil {
		t.Fatalf("explain %s %s: %v", start, end, err)
	}
	return res
}
