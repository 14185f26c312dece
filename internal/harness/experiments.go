package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rex/internal/enumerate"
	"rex/internal/kb"
	"rex/internal/measure"
	"rex/internal/oracle"
	"rex/internal/pattern"
	"rex/internal/rank"
)

// Combo is one algorithm combination of Figure 7: its name in the paper
// and how it enumerates a pair's explanations under a pattern size limit.
// All but the last combine the paper's strawmen (internal/oracle); the
// last is the served pipeline.
type Combo struct {
	Name string
	Run  func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation
}

// NaiveRow names Figure 7's NaiveEnum row, which a quick run skips.
const NaiveRow = "NaiveEnum"

// Fig7Combos returns the five combinations compared in Figure 7, in the
// paper's order. The last two rows run the served path search, kb's
// simple-path join, where the paper has PathEnumPrioritized, and are
// labelled by what they run; the fifth is the served enumerator.
func Fig7Combos() []Combo {
	return []Combo{
		{NaiveRow, oracle.NaiveEnum},
		{"PathEnumNaive+PathUnionBasic", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
			return oracle.PathUnionBasic(oracle.Group(g, oracle.PathEnumNaive(g, start, end, maxVars-1)), maxVars)
		}},
		{"PathEnumBasic+PathUnionBasic", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
			return oracle.PathUnionBasic(oracle.Group(g, oracle.PathEnumBasic(g, start, end, maxVars-1)), maxVars)
		}},
		{"PathJoin+PathUnionBasic", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
			paths, _, _ := enumerate.PathsBudgeted(context.Background(), g, start, end, enumerate.Config{MaxPatternSize: maxVars})
			return oracle.PathUnionBasic(paths, maxVars)
		}},
		{"PathJoin+PathUnionPrune", func(g *kb.Graph, start, end kb.NodeID, maxVars int) []*pattern.Explanation {
			es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, start, end, enumerate.Config{MaxPatternSize: maxVars})
			return es
		}},
	}
}

// Fig7 measures average explanation-enumeration time per algorithm
// combination and connectedness group. skipNaive drops the NaiveEnum
// baseline (useful when its runtime would dominate a quick run).
func (e *Env) Fig7(skipNaive bool) Table {
	t := Table{
		Title:   "Figure 7: explanation enumeration time by algorithm (avg seconds per pair)",
		Headers: []string{"algorithm", "low", "medium", "high"},
	}
	for _, c := range Fig7Combos() {
		if c.Name == NaiveRow && skipNaive {
			continue
		}
		row := []string{c.Name}
		for _, b := range Buckets() {
			pairs := e.PairsIn(b)
			if len(pairs) == 0 {
				row = append(row, "n/a")
				continue
			}
			total := 0.0
			for _, p := range pairs {
				p := p
				total += Time(func() { c.Run(e.G, p.Start, p.End, e.Opt.MaxPatternSize) })
			}
			row = append(row, Seconds(total/float64(len(pairs))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig8 measures enumeration time (best algorithms) against the number of
// explanation instances per pair — the scalability scatter of Figure 8.
func (e *Env) Fig8() Table {
	t := Table{
		Title:   "Figure 8: enumeration time vs number of explanation instances (best algorithms)",
		Headers: []string{"pair", "bucket", "instances", "seconds"},
	}
	cfg := enumerate.Config{MaxPatternSize: e.Opt.MaxPatternSize}
	type point struct {
		name      string
		bucket    string
		instances int
		secs      float64
	}
	var pts []point
	for _, p := range e.Pairs {
		p := p
		var es []*pattern.Explanation
		secs := Time(func() { es, _, _ = enumerate.ExplanationsBudgeted(context.Background(), e.G, p.Start, p.End, cfg) })
		instances := 0
		for _, ex := range es {
			instances += len(ex.Instances)
		}
		pts = append(pts, point{
			name:      fmt.Sprintf("%s/%s", e.G.NodeName(p.Start), e.G.NodeName(p.End)),
			bucket:    p.Bucket.String(),
			instances: instances,
			secs:      secs,
		})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].instances < pts[j].instances })
	for _, pt := range pts {
		t.Rows = append(t.Rows, []string{pt.name, pt.bucket, fmt.Sprint(pt.instances), Seconds(pt.secs)})
	}
	return t
}

// Fig9 compares full enumerate-then-rank against the interleaved top-k
// (k=10) pruning for the anti-monotonic monocount measure.
func (e *Env) Fig9() Table {
	t := Table{
		Title:   "Figure 9: top-k (k=10) pruning for monocount (avg seconds per pair)",
		Headers: []string{"group", "full enumeration", "top-k pruning", "speedup"},
	}
	for _, b := range Buckets() {
		full, pruned := e.rankTimes(b, 10)
		speedup := "n/a"
		if pruned > 0 {
			speedup = fmt.Sprintf("%.1fx", full/pruned)
		}
		t.Rows = append(t.Rows, []string{b.String(), Seconds(full), Seconds(pruned), speedup})
	}
	return t
}

// rankTimes measures average full-rank and pruned-rank time for the
// monocount measure over one bucket.
func (e *Env) rankTimes(b kb.ConnBucket, k int) (full, pruned float64) {
	pairs := e.PairsIn(b)
	if len(pairs) == 0 {
		return 0, 0
	}
	cfg := enumerate.Config{MaxPatternSize: e.Opt.MaxPatternSize}
	m := measure.Monocount{}
	for _, p := range pairs {
		p := p
		ctx := &measure.Context{G: e.G, Start: p.Start, End: p.End}
		full += Time(func() {
			es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), e.G, p.Start, p.End, cfg)
			rank.GeneralBudgeted(context.Background(), ctx, es, m, k)
		})
		pruned += Time(func() {
			rank.TopKAntiMonotoneBudgeted(context.Background(), e.G, p.Start, p.End, cfg, ctx, m, k)
		})
	}
	n := float64(len(pairs))
	return full / n, pruned / n
}

// Fig10 sweeps k and reports average compute time with and without top-k
// pruning per connectedness group.
func (e *Env) Fig10(ks []int) Table {
	if len(ks) == 0 {
		ks = []int{1, 5, 10, 20, 50, 100, 200}
	}
	t := Table{
		Title:   "Figure 10: average compute time vs k (monocount; pruned vs full)",
		Headers: []string{"group", "k", "full", "pruned"},
	}
	for _, b := range Buckets() {
		for _, k := range ks {
			full, pruned := e.rankTimes(b, k)
			t.Rows = append(t.Rows, []string{b.String(), fmt.Sprint(k), Seconds(full), Seconds(pruned)})
		}
	}
	return t
}

// Fig11 measures the cost of ranking top-10 explanations by the
// distribution-based position measure in the paper's four scenarios:
// local and global distributions, each with and without LIMIT pruning.
func (e *Env) Fig11() Table {
	t := Table{
		Title:   "Figure 11: top-10 ranking cost with distributional measures (avg seconds per pair)",
		Headers: []string{"group", "local", "local+prune", "global", "global+prune"},
	}
	cfg := enumerate.Config{MaxPatternSize: e.Opt.MaxPatternSize}
	local := measure.LocalPosition{}
	global := measure.GlobalPosition{}
	for _, b := range Buckets() {
		pairs := e.PairsIn(b)
		if len(pairs) == 0 {
			t.Rows = append(t.Rows, []string{b.String(), "n/a", "n/a", "n/a", "n/a"})
			continue
		}
		var tl, tlp, tg, tgp float64
		for _, p := range pairs {
			p := p
			es, _, _ := enumerate.ExplanationsBudgeted(context.Background(), e.G, p.Start, p.End, cfg)
			ctx := &measure.Context{
				G: e.G, Start: p.Start, End: p.End,
				SampleStarts: measure.SampleStartsOfType(
					e.G, e.G.Node(p.Start).Type, e.Opt.GlobalSamples, e.Opt.Seed),
			}
			bg, never := context.Background(), time.Time{}
			tl += Time(func() { rank.GeneralBudgeted(bg, ctx, es, local, 10) })
			tlp += Time(func() { rank.TopKDistributionalBudgeted(bg, ctx, es, local, 10, never) })
			tg += Time(func() { rank.GeneralBudgeted(bg, ctx, es, global, 10) })
			tgp += Time(func() { rank.TopKDistributionalBudgeted(bg, ctx, es, global, 10, never) })
		}
		n := float64(len(pairs))
		t.Rows = append(t.Rows, []string{
			b.String(), Seconds(tl / n), Seconds(tlp / n), Seconds(tg / n), Seconds(tgp / n),
		})
	}
	return t
}
