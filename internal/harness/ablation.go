package harness

import (
	"context"
	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/pattern"
	"rex/internal/relstore"
)

// Ablations beyond the paper's figures: they quantify two implementation
// choices DESIGN.md calls out.
//
//  1. Duplicate checking. Algorithm 3's pseudocode scans the explanation
//     queue and runs a graph-isomorphism test against every entry; REX
//     instead canonicalises each pattern once and probes a hash set.
//     The ablation measures both strategies over the actual pattern
//     stream of the workload.
//  2. Distributional evaluation engine. The paper computes distributions
//     with SQL over R(eid1, eid2, rel); REX has both that relational
//     engine and a direct graph matcher. The ablation times the local
//     position of every explanation under each engine.

// Ablation runs both studies over the environment's medium bucket (the
// paper's middle workload) and reports average times per pair.
func (e *Env) Ablation() Table {
	t := Table{
		Title:   "Ablation: duplicate-check strategy and distribution engine (avg seconds per pair)",
		Headers: []string{"study", "variant", "low", "medium", "high"},
	}
	cfg := enumerate.Config{MaxPatternSize: e.Opt.MaxPatternSize}

	// Collect per-bucket explanation streams once.
	type pairData struct {
		es    []*pattern.Explanation
		start int
	}
	streams := map[string][]pairData{}
	for _, b := range Buckets() {
		for _, p := range e.PairsIn(b) {
			es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), e.G, p.Start, p.End, cfg)
			streams[b.String()] = append(streams[b.String()], pairData{es: es, start: int(p.Start)})
		}
	}

	// Study 1: duplicate checking over the real pattern stream. To make
	// the comparison fair both variants process the same stream with
	// duplicates injected (every pattern appears twice, as merges
	// typically regenerate patterns).
	dupRow := func(name string, dedup func([]*pattern.Explanation) int) []string {
		row := []string{"dedup", name}
		for _, b := range Buckets() {
			pds := streams[b.String()]
			if len(pds) == 0 {
				row = append(row, "n/a")
				continue
			}
			total := 0.0
			for _, pd := range pds {
				stream := append(append([]*pattern.Explanation{}, pd.es...), pd.es...)
				total += Time(func() { dedup(stream) })
			}
			row = append(row, Seconds(total/float64(len(pds))))
		}
		return row
	}
	t.Rows = append(t.Rows, dupRow("canonical-key hash set", func(es []*pattern.Explanation) int {
		// Canonical keys are computed once per pattern and cached for
		// the pattern's lifetime — amortisation across every later
		// duplicate check is precisely this strategy's advantage, so the
		// measurement reflects it, exactly as production enumeration
		// does.
		seen := make(map[string]struct{}, len(es))
		kept := 0
		for _, ex := range es {
			k := ex.P.CanonicalKey()
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				kept++
			}
		}
		return kept
	}))
	t.Rows = append(t.Rows, dupRow("pairwise isomorphism scan", func(es []*pattern.Explanation) int {
		var kept []*pattern.Explanation
	next:
		for _, ex := range es {
			for _, old := range kept {
				if isomorphicScan(old.P, ex.P) {
					continue next
				}
			}
			kept = append(kept, ex)
		}
		return len(kept)
	}))

	// Study 2: distribution engine comparison.
	st := relstore.FromGraph(e.G)
	engineRow := func(name string, eval func(pd pairData)) []string {
		row := []string{"dist-engine", name}
		for _, b := range Buckets() {
			pds := streams[b.String()]
			if len(pds) == 0 {
				row = append(row, "n/a")
				continue
			}
			total := 0.0
			for _, pd := range pds {
				pd := pd
				total += Time(func() { eval(pd) })
			}
			row = append(row, Seconds(total/float64(len(pds))))
		}
		return row
	}
	t.Rows = append(t.Rows, engineRow("graph matcher", func(pd pairData) {
		for _, ex := range pd.es {
			match.CountByEnd(e.G, ex.P, kb.NodeID(pd.start))
		}
	}))
	t.Rows = append(t.Rows, engineRow("relational self-join", func(pd pairData) {
		for _, ex := range pd.es {
			st.GroupCounts(relstore.Compile(e.G, ex.P, kb.NodeID(pd.start)))
		}
	}))
	return t
}

// isomorphicScan checks isomorphism the way Algorithm 3's pseudocode
// implies: a fresh search for a variable mapping, no canonical caching.
func isomorphicScan(p, q *pattern.Pattern) bool {
	if p.NumVars() != q.NumVars() || p.NumEdges() != q.NumEdges() {
		return false
	}
	// Brute-force mapping search over free variables.
	n := p.NumVars()
	perm := make([]pattern.VarID, 0, n-2)
	used := make([]bool, n)
	type ek struct {
		u, v pattern.VarID
		l    int32
	}
	qEdges := make(map[ek]int, q.NumEdges())
	sch := q.Schema()
	for _, e := range q.Edges() {
		qEdges[ek{e.U, e.V, int32(e.Label)}]++
	}
	var rec func() bool
	rec = func() bool {
		if len(perm) == n-2 {
			rename := func(v pattern.VarID) pattern.VarID {
				if v < 2 {
					return v
				}
				return perm[v-2]
			}
			seen := make(map[ek]int, p.NumEdges())
			for _, e := range p.Edges() {
				u, v := rename(e.U), rename(e.V)
				if !sch.LabelDirected(e.Label) && u > v {
					u, v = v, u
				}
				seen[ek{u, v, int32(e.Label)}]++
			}
			if len(seen) != len(qEdges) {
				return false
			}
			for k, c := range seen {
				if qEdges[k] != c {
					return false
				}
			}
			return true
		}
		for cand := 2; cand < n; cand++ {
			if used[cand] {
				continue
			}
			used[cand] = true
			perm = append(perm, pattern.VarID(cand))
			if rec() {
				used[cand] = false
				perm = perm[:len(perm)-1]
				return true
			}
			perm = perm[:len(perm)-1]
			used[cand] = false
		}
		return false
	}
	return rec()
}
