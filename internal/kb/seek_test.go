package kb

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// randomSpan builds one label's span as a frozen graph orders it, by
// (To, Dir): a directed label holds Out, In or both for a To, an
// undirected one a single Undirected entry. Gaps between neighbouring
// To values are mostly small, with now and then a hub-sized jump.
func randomSpan(rng *rand.Rand) []HalfEdge {
	directed := rng.Intn(3) != 0
	var span []HalfEdge
	to := NodeID(rng.Intn(4))
	for i, n := 0, rng.Intn(300); i < n; i++ {
		switch {
		case !directed:
			span = append(span, HalfEdge{To: to, Dir: Undirected})
		case rng.Intn(3) == 0:
			span = append(span, HalfEdge{To: to, Dir: Out}, HalfEdge{To: to, Dir: In})
		case rng.Intn(2) == 0:
			span = append(span, HalfEdge{To: to, Dir: Out})
		default:
			span = append(span, HalfEdge{To: to, Dir: In})
		}
		if rng.Intn(20) == 0 {
			to += NodeID(500 + rng.Intn(5000))
		} else {
			to += NodeID(1 + rng.Intn(3))
		}
	}
	return span
}

// TestSeekHalfEdgeMatchesScan probes random spans the way the matcher and
// the path walk do — runs of ascending nodes with repeats, small steps and
// jumps past whole hubs, a rewind between runs — and checks every answer
// against a brute-force scan, on the sorted span and on a shuffled copy
// (an unfrozen graph's order). On the sorted span the cursor must land
// on the first entry with To ≥ the probe, wherever it started.
func TestSeekHalfEdgeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probes := 0
	for trial := 0; trial < 3000; trial++ {
		span := randomSpan(rng)
		shuffled := slices.Clone(span)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		top := NodeID(8)
		if len(span) > 0 {
			top += span[len(span)-1].To
		}
		for _, dir := range []Dir{Out, In, Undirected} {
			for run := 0; run < 4; run++ {
				pos, upos := 0, 0 // a rewind
				to := NodeID(rng.Intn(8)) - 2
				for to <= top {
					want := false
					for _, he := range span {
						want = want || he.To == to && he.Dir == dir
					}
					if got := SeekHalfEdge(span, &pos, to, dir, true); got != want {
						t.Fatalf("trial %d: sorted seek of (%d, %v) = %v, scan says %v", trial, to, dir, got, want)
					}
					if first := sort.Search(len(span), func(i int) bool { return span[i].To >= to }); pos != first {
						t.Fatalf("trial %d: seek of %d left the cursor at %d, first To ≥ it is at %d", trial, to, pos, first)
					}
					if got := SeekHalfEdge(shuffled, &upos, to, dir, false); got != want {
						t.Fatalf("trial %d: unsorted seek of (%d, %v) = %v, scan says %v", trial, to, dir, got, want)
					}
					probes++
					switch r := rng.Intn(10); {
					case r == 0: // a repeat
					case r < 8:
						to += NodeID(1 + rng.Intn(4))
					default:
						to += NodeID(rng.Intn(int(top) + 1))
					}
				}
			}
		}
	}
	t.Logf("%d probes", probes)
}
