package measure

import (
	"math"
	"sort"

	"rex/internal/kb"
	"rex/internal/pattern"
)

// The paper's second distributional statistic (Section 4.3): instead of
// the explanation's position in the distribution, measure how many
// standard deviations its aggregate value lies above the distribution's
// mean ("turns out to be similarly effective as M_position"; the paper
// omits details for space). REX implements it so the claim can be
// checked: see the measure-ablation benchmarks.
//
// The distribution D is the multiset of per-end instance counts of the
// pattern with the start fixed — entities with no instance contribute
// nothing, exactly as in the position measure, which only ever counts
// entities whose aggregate exceeds a value ≥ 1.

// LocalDeviation scores an explanation by (A - mean(D_l)) / stddev(D_l),
// where A is the explanation's instance count and D_l the local count
// distribution. Higher means the pair's bond is unusually strong for
// this pattern. A degenerate distribution (single point or zero
// variance) scores 0.
type LocalDeviation struct{}

// Name implements Measure.
func (LocalDeviation) Name() string { return "local-dev" }

// AntiMonotonic implements Measure.
func (LocalDeviation) AntiMonotonic() bool { return false }

// Score implements Measure.
func (LocalDeviation) Score(ctx *Context, ex *pattern.Explanation) Score {
	counts, _ := localTable(ctx.Context(), ctx.G, ex.P, ctx.Start)
	return Score{deviation(counts, float64(ex.Count()))}
}

// GlobalDeviation averages the deviation over the sampled start
// entities' local distributions, mirroring the global position estimate.
// A start the sample repeats is evaluated once per call and its
// deviation added again in sample order, so the sum is that of one
// evaluation per sample.
type GlobalDeviation struct{}

// Name implements Measure.
func (GlobalDeviation) Name() string { return "global-dev" }

// AntiMonotonic implements Measure.
func (GlobalDeviation) AntiMonotonic() bool { return false }

// Score implements Measure.
func (GlobalDeviation) Score(ctx *Context, ex *pattern.Explanation) Score {
	starts := ctx.SampleStarts
	if len(starts) == 0 {
		starts = []kb.NodeID{ctx.Start}
	}
	a := float64(ex.Count())
	total := 0.0
	cctx := ctx.Context()
	seen := make(map[kb.NodeID]float64, len(starts))
	for _, s := range starts {
		if cctx.Err() != nil {
			break // partial score; the caller checks the context
		}
		d, ok := seen[s]
		if !ok {
			counts, _ := localTable(cctx, ctx.G, ex.P, s)
			d = deviation(counts, a)
			seen[s] = d
		}
		total += d
	}
	return Score{total / float64(len(starts))}
}

// deviation computes (a - mean) / stddev over the count multiset,
// returning 0 for degenerate distributions. Values are summed in sorted
// key order so the floating-point result is identical across runs (map
// iteration order is randomised in Go).
func deviation(counts map[kb.NodeID]int, a float64) float64 {
	n := float64(len(counts))
	if n < 2 {
		return 0
	}
	ids := make([]kb.NodeID, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sum := 0.0
	for _, id := range ids {
		sum += float64(counts[id])
	}
	mean := sum / n
	varsum := 0.0
	for _, id := range ids {
		d := float64(counts[id]) - mean
		varsum += d * d
	}
	sd := math.Sqrt(varsum / n)
	if sd == 0 {
		return 0
	}
	return (a - mean) / sd
}
