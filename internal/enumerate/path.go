package enumerate

import (
	"context"

	"rex/internal/kb"
	"rex/internal/obs"
)

// Path enumeration at the instance level (Section 3.2). Every request
// runs kb's meet-in-the-middle join (kb.PathJoin, the one Connectedness
// counts with), which returns exactly the set of simple paths between
// the targets with length ≤ maxLen that the paper's strawmen
// (internal/oracle) list. A Budget bounds the join itself: MaxExpansions
// caps the expansions it counts, and a Deadline ends it through a
// context derived in enumState.paths. The join's visit order is fixed,
// so an expansion cap keeps a prefix of the uncapped visit sequence.
//
// A finished path is its comparable pathKey, a small struct of inline
// arrays bounded by pattern.MaxVars, so storing paths never touches the
// allocator beyond the amortised growth of the pooled result buffer.
//
// The join checks its context every 256 expansions, and the union every
// 256 merge pairs, not per edge, so an expired deadline aborts
// enumeration mid-flight at a cost that stays invisible on the happy
// path.

// pathSearch runs kb's simple-path join (kb.PathJoin), whose buffers the
// pooled state keeps, packing each path it visits into a key: with no
// order to keep, the join stores the cheaper endpoint's side and walks
// the other, and groupPaths sorts the keys anyway. Expansions are the
// join's: one adjacency scan per partial path grown, at most limit of
// them when limit > 0 (capped reports that the limit stopped it). On a
// context error the keys visited so far are returned beside it.
func (st *enumState) pathSearch(ctx context.Context, g *kb.Graph, start, end kb.NodeID, maxLen, limit int) (keys []pathKey, capped bool, err error) {
	st.out = st.out[:0]
	n, capped, err := st.join.Paths(ctx, g, start, end, maxLen, limit, func(steps []kb.HalfEdge) bool {
		st.out = append(st.out, pathKey{n: int8(len(steps) + 1)})
		k := &st.out[len(st.out)-1]
		k.nodes[0] = start
		for i, he := range steps {
			k.nodes[i+1] = he.To
			k.steps[i] = pathStepKey{label: he.Label, dir: he.Dir}
		}
		return true
	})
	obs.FromContext(ctx).Add(obs.Expansions, int64(n))
	return st.out, capped, err
}
