package rex

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"rex/internal/kb"
	"rex/internal/pattern"
)

// recallRung is one rung of the budget recall ladder: how many of the
// unbudgeted top-10 explanations of the 33 work pairs a query under an
// expansion budget keeps in its own top-10, summed over the pairs, and
// how many of the 33 answers the budget truncated.
type recallRung struct{ kept, truncated int }

// recallLadder pins TestBudgetRecallLadder on medium, per measure: the
// size of the 33 unbudgeted top-10s together, then one rung per entry of
// budgetLadder. MaxExpansions is deterministic, so a change that moves a
// rung changed what budgeted queries answer.
var recallLadder = map[string]struct {
	top   int
	rungs []recallRung
}{
	"size":            {top: 277, rungs: []recallRung{{0, 33}, {18, 31}, {201, 13}, {277, 1}, {277, 0}}},
	"local-dist":      {top: 277, rungs: []recallRung{{0, 33}, {11, 31}, {188, 13}, {277, 1}, {277, 0}}},
	"size+local-dist": {top: 277, rungs: []recallRung{{0, 33}, {11, 31}, {189, 13}, {277, 1}, {277, 0}}},
}

// canonicalPattern parses a rendered pattern ("p{3: start-[l]->v2,
// end-[l]-v2}", see pattern.String) back into a pattern over g's labels
// and returns its canonical key, which does not depend on how the
// pattern's interior variables happen to be numbered.
func canonicalPattern(t *testing.T, g *kb.Graph, s string) string {
	t.Helper()
	head, body, ok := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(s, "p{"), "}"), ":")
	n, err := strconv.Atoi(head)
	if !ok || err != nil {
		t.Fatalf("pattern %q: bad variable count", s)
	}
	vars := map[string]pattern.VarID{"start": pattern.Start, "end": pattern.End}
	for i := 2; i < n; i++ {
		vars["v"+strconv.Itoa(i)] = pattern.VarID(i)
	}
	var edges []pattern.Edge
	for _, e := range strings.Split(body, ",") {
		u, rest, ok1 := strings.Cut(strings.TrimSpace(e), "-[")
		label, v, ok2 := strings.Cut(rest, "]")
		v = strings.TrimPrefix(strings.TrimPrefix(v, "-"), ">")
		if !ok1 || !ok2 || g.LabelByName(label) < 0 {
			t.Fatalf("pattern %q: bad edge %q", s, e)
		}
		edges = append(edges, pattern.Edge{U: vars[u], V: vars[v], Label: g.LabelByName(label)})
	}
	p, err := pattern.New(g, n, edges)
	if err != nil {
		t.Fatalf("pattern %q: %v", s, err)
	}
	return p.CanonicalKey()
}

// TestBudgetRecallLadder measures what an expansion budget costs an
// answer: on the work pairs, under size, local-dist and size+local-dist,
// at every rung of budgetLadder, it logs recall@10 of the unbudgeted
// top-10 (the share of the 33 unbudgeted top-10 explanations, together,
// that the budgeted top-10s keep), how many pairs the budget truncated
// and how long the 33 budgeted queries took, and pins the first two on
// medium. With -work-million it logs million's ladder too, unpinned.
func TestBudgetRecallLadder(t *testing.T) {
	presets := []string{"medium"}
	if *workMillion {
		presets = append(presets, "million")
	}
	ctx := context.Background()
	for _, preset := range presets {
		g, pairs := workPairs(t, preset)
		k := &KB{g: g}
		for _, m := range []string{"size", "local-dist", "size+local-dist"} {
			ex, err := NewExplainer(k, Options{Measure: m, TopK: 10})
			if err != nil {
				t.Fatal(err)
			}
			top := 0
			rungs := make([]recallRung, len(budgetLadder))
			took := make([]time.Duration, len(budgetLadder))
			for _, p := range pairs {
				full, err := ex.Explain(p.Start, p.End)
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]bool{}
				for _, e := range full.Explanations {
					want[canonicalPattern(t, g, e.Pattern)] = true
				}
				top += len(want)
				for i, n := range budgetLadder {
					t0 := time.Now()
					res, err := ex.Query(ctx, Request{Pair: p, Budget: Budget{MaxExpansions: n}})
					took[i] += time.Since(t0)
					if err != nil {
						t.Fatalf("%s->%s at %d expansions: %v", p.Start, p.End, n, err)
					}
					if res.Truncated {
						rungs[i].truncated++
					}
					for _, e := range res.Explanations {
						if want[canonicalPattern(t, g, e.Pattern)] {
							rungs[i].kept++
						}
					}
				}
			}
			line := fmt.Sprintf("%s, %s, %d in the unbudgeted top-10s; recall@10 (pairs truncated, time) by MaxExpansions:", preset, m, top)
			for i, n := range budgetLadder {
				line += fmt.Sprintf(" %d: %.3f (%d, %v)", n, float64(rungs[i].kept)/float64(top), rungs[i].truncated, took[i].Round(time.Millisecond))
			}
			t.Log(line)
			if pin := recallLadder[m]; preset == "medium" && (top != pin.top || fmt.Sprint(rungs) != fmt.Sprint(pin.rungs)) {
				t.Errorf("%s: top-10s of %d and rungs %v, want %d and %v", m, top, rungs, pin.top, pin.rungs)
			}
		}
	}
}
