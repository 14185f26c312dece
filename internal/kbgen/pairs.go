package kbgen

import (
	"math/rand"
	"slices"

	"rex/internal/kb"
)

// Pair is a related entity pair with its connectedness bucket, standing
// in for the paper's search-engine "related entities" suggestions
// (Section 5.1). The substitution: we sample pairs within a small hop
// radius — which is what statistical relatedness from query logs yields
// in practice — and bucket them with the paper's own connectedness
// thresholds.
type Pair struct {
	Start, End kb.NodeID
	// Connectedness is the pair's simple-path count within
	// PairOptions.MaxLen, capped at 101: one past the high threshold.
	Connectedness int
	Bucket        kb.ConnBucket
}

// PairOptions controls sampling.
type PairOptions struct {
	// PerBucket is how many pairs to collect in each of the low, medium
	// and high connectedness groups (the paper uses 10).
	PerBucket int
	// MaxLen is the path-length limit for the connectedness count (the
	// paper uses 4, matching the pattern size limit of 5).
	MaxLen int
	// Seed drives the deterministic sampling.
	Seed int64
	// MaxAttempts bounds the search for pairs; 0 means a generous
	// default proportional to the request.
	MaxAttempts int
}

func (o PairOptions) normalized() PairOptions {
	if o.PerBucket <= 0 {
		o.PerBucket = 10
	}
	if o.MaxLen <= 0 {
		o.MaxLen = 4
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4000 * o.PerBucket
	}
	return o
}

// SamplePairs draws entity pairs from the graph until each connectedness
// bucket holds PerBucket pairs (or attempts are exhausted — dense or
// sparse graphs may not populate every bucket). A pair is found by
// picking a random start entity and walking 1–2 hops to a random end
// entity, mimicking "related" suggestions which are overwhelmingly near
// neighbours in the knowledge graph.
func SamplePairs(g *kb.Graph, opt PairOptions) []Pair {
	opt = opt.normalized()
	rng := rand.New(rand.NewSource(opt.Seed))
	buckets := map[kb.ConnBucket][]Pair{}
	seen := map[[2]kb.NodeID]struct{}{}
	full := func() bool {
		return len(buckets[kb.ConnLow]) >= opt.PerBucket &&
			len(buckets[kb.ConnMedium]) >= opt.PerBucket &&
			len(buckets[kb.ConnHigh]) >= opt.PerBucket
	}
	// A hop picks the k-th neighbour in (To, Label, Dir) order, the order
	// spans were stored in when the benchmark's pair sets were drawn:
	// Neighbors lists (Label, To, Dir), so the hop sorts the targets.
	var tos []kb.NodeID
	for attempt := 0; attempt < opt.MaxAttempts && !full(); attempt++ {
		start := kb.NodeID(rng.Intn(g.NumNodes()))
		if g.Degree(start) == 0 {
			continue
		}
		// Walk one or two hops to a candidate end.
		cur := start
		hops := 1 + rng.Intn(2)
		for h := 0; h < hops; h++ {
			nbrs := g.Neighbors(cur)
			if len(nbrs) == 0 {
				break
			}
			tos = tos[:0]
			for _, he := range nbrs {
				tos = append(tos, he.To)
			}
			slices.Sort(tos)
			cur = tos[rng.Intn(len(tos))]
		}
		end := cur
		if end == start {
			continue
		}
		key := [2]kb.NodeID{start, end}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		// Cap the count just above the high threshold: bucketing only
		// needs to know which side of 100 the pair falls on, and the cap
		// keeps sampling on dense graphs cheap. Pair.Connectedness is
		// therefore min(count, 101), and cmd/kbgen prints it as is.
		conn := g.Connectedness(start, end, opt.MaxLen, 101)
		bucket := kb.Bucket(conn)
		if len(buckets[bucket]) >= opt.PerBucket {
			continue
		}
		buckets[bucket] = append(buckets[bucket], Pair{
			Start: start, End: end, Connectedness: conn, Bucket: bucket,
		})
	}
	out := make([]Pair, 0, 3*opt.PerBucket)
	out = append(out, buckets[kb.ConnLow]...)
	out = append(out, buckets[kb.ConnMedium]...)
	out = append(out, buckets[kb.ConnHigh]...)
	return out
}
