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
// (internal/oracle) list. A WithDeadline context ends the join like any
// other.
//
// Each finished path is filed at once under its step sequence
// (stepSeqKey): the visit appends its group and its nodes, in instance
// layout, to two pooled flat buffers, so storing paths never touches the
// allocator beyond the amortised growth of those buffers, and nothing is
// sorted. The join visits each simple path exactly once, so nothing is
// de-duplicated either.
//
// The join checks its context every 256 expansions, and the union every
// 32 merge pairs, not per edge, so an ended context aborts enumeration
// mid-flight at a cost that stays invisible on the happy path;
// pathSearch checks it once more before the join starts.

// pathSearch runs kb's simple-path join (kb.PathJoin), whose buffers the
// pooled state keeps, and files each path it visits: its group id in
// st.pathGroups (a new step sequence opens a group in st.gseqs, and
// st.gcounts counts its paths), its nodes as [start, end, interior...]
// in st.pathNodes. Expansions are the
// join's: one adjacency scan per partial path grown. On a context error
// the paths visited so far stay filed beside it.
func (st *enumState) pathSearch(ctx context.Context, g *kb.Graph, start, end kb.NodeID, maxLen int) error {
	clear(st.groups)
	st.gseqs, st.gcounts = st.gseqs[:0], st.gcounts[:0]
	st.pathGroups, st.pathNodes = st.pathGroups[:0], st.pathNodes[:0]
	// A context that has already ended never reaches the join, whose
	// first poll comes only at its 256th expansion. The check reads Done,
	// so the join's polls remain the only calls to Err.
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	n, err := st.join.Paths(ctx, g, start, end, maxLen, func(steps []kb.HalfEdge) bool {
		key := stepSeqKey{n: int8(len(steps) + 1)}
		for i, he := range steps {
			key.steps[i] = pathStepKey{label: he.Label, dir: he.Dir}
		}
		gid, ok := st.groups[key]
		if !ok {
			gid = int32(len(st.gseqs))
			st.groups[key] = gid
			st.gseqs = append(st.gseqs, key)
			st.gcounts = append(st.gcounts, 0)
		}
		st.gcounts[gid]++
		st.pathGroups = append(st.pathGroups, gid)
		st.pathNodes = append(st.pathNodes, start, end)
		for _, he := range steps[:len(steps)-1] {
			st.pathNodes = append(st.pathNodes, he.To)
		}
		return true
	})
	obs.FromContext(ctx).Add(obs.Expansions, int64(n))
	return err
}
