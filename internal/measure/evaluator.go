// Shared-computation measure evaluation. The interestingness measures of
// Section 4 are dominated by subgraph-match counting: the distributional
// measures evaluate every explanation's pattern with a free end (and,
// globally, over ~100 sampled starts). The Evaluator memoises what those
// evaluations return, so re-evaluating a pattern — across measures of a
// combination, repeated queries on one snapshot, or the study harness —
// never counts twice:
//
//   - match counts by (pattern key, pair);
//   - positions in the local distribution by (pattern key, start, a):
//     the answer the position measures need, a few words per entry;
//   - whole per-end count tables by (pattern key, start), only for the
//     deviation measures, which need every value of the distribution.
//
// All three are filled by the counting kernel of dist.go; the evaluator
// itself never walks the graph.
//
// An Evaluator is pinned to one frozen graph. The facade builds one per
// snapshot (rex.Explainer owns it, rex.Store rebuilds the Explainer on
// every hot swap), so memo lifetime equals snapshot lifetime and stale
// counts can never leak across generations. Because a snapshot can live
// indefinitely (a static KB never swaps) while memo keys are driven by
// user queries, every memo is bounded and flushes wholesale on overflow
// — memory stays fixed no matter the query diversity.
//
// Concurrency: the memos are split into power-of-two lock shards keyed
// by the low bits of pattern.Key (an FNV-1a hash, so the bits are well
// mixed), so concurrent BatchExplain workers hitting different patterns
// never serialise on one mutex. Sharding only partitions the maps;
// every result is computed exactly as before, so scores are
// byte-identical to the single-lock implementation.

package measure

import (
	"context"
	"sync"
	"sync/atomic"

	"rex/internal/kb"
	"rex/internal/match"
	"rex/internal/obs"
	"rex/internal/pattern"
)

// MemoStats is a snapshot of the evaluator's memo occupancy and
// effectiveness, sampled by the serving tier's /metrics gauges.
// Counters reset with the evaluator on hot swap; occupancy is current.
type MemoStats struct {
	// PairMemos, Positions and TableCells are the result-memo occupancy
	// summed across lock shards (bounded by maxPairMemos, maxPairMemos
	// and maxTableCells).
	PairMemos  int
	Positions  int
	TableCells int
	// Hits and Misses count result-memo lookups (Count, LocalPosition
	// and CountByEnd).
	Hits, Misses uint64
	// Promotions counts memos promoted from the previous generation
	// after a hot swap instead of recomputed.
	Promotions uint64
}

// MemoStats gathers the snapshot, taking each shard lock briefly.
func (ev *Evaluator) MemoStats() MemoStats {
	st := MemoStats{
		Hits:       ev.hits.Load(),
		Misses:     ev.misses.Load(),
		Promotions: ev.promotions.Load(),
	}
	for i := range ev.shards {
		sh := &ev.shards[i]
		sh.mu.Lock()
		st.PairMemos += len(sh.pairs)
		st.Positions += len(sh.positions)
		st.TableCells += sh.tableCells
		sh.mu.Unlock()
	}
	return st
}

// Evaluator memoises match-count computations over one frozen graph. It
// is safe for concurrent use; cached tables are shared and must be
// treated as read-only by callers.
type Evaluator struct {
	g *kb.Graph

	shards [evalShardCount]evalShard

	// carry, when set, links to the previous generation's evaluator for
	// cross-snapshot memo promotion (see carry.go). promotions counts
	// memos promoted through it.
	carry      atomic.Pointer[carryLink]
	promotions atomic.Uint64

	// Memo effectiveness counters for MemoStats. Reset with the
	// evaluator on hot swap, like the memos themselves.
	hits, misses atomic.Uint64
}

// evalShard holds one lock shard of the result memos. Shards are
// selected by pattern key, so all memo traffic for one pattern —
// including the CountByEnd table an explanation set shares — lands on
// one mutex while different patterns proceed in parallel.
type evalShard struct {
	mu         sync.Mutex
	pairs      map[pairCountKey]int
	positions  map[positionKey]position
	tables     map[tableKey]map[kb.NodeID]int
	tableCells int // total entries across this shard's tables
}

// evalShardCount is the number of result-memo lock shards. Power of two
// so shard selection is a mask; 16 comfortably covers any realistic
// BatchExplain worker count while keeping the per-shard flush bounds
// meaningful.
const evalShardCount = 16

// shardFor selects the lock shard for a pattern key. The key is an
// FNV-1a hash, so its low bits are uniformly distributed.
func (ev *Evaluator) shardFor(k pattern.Key) *evalShard {
	return &ev.shards[uint64(k)&(evalShardCount-1)]
}

type pairCountKey struct {
	p          pattern.Key
	start, end kb.NodeID
}

type tableKey struct {
	p     pattern.Key
	start kb.NodeID
}

// positionKey identifies one local-position question: how many ends of
// D_l(p, start) have strictly more than a instances.
type positionKey struct {
	p     pattern.Key
	start kb.NodeID
	a     int
}

// position is what an evaluation learnt about a positionKey: the exact
// position n, or — when LIMIT p cut the evaluation at limit n — only
// that the position exceeds n.
type position struct {
	n     int
	exact bool
}

// under answers the question for one limit from what is known; known is
// false when the entry is a bound too weak to decide this limit.
func (m position) under(limit int) (pos int, ok, known bool) {
	switch {
	case limit >= 0 && (m.n > limit || (!m.exact && m.n == limit)):
		return 0, false, true
	case m.exact:
		return m.n, true, true
	}
	return 0, false, false
}

const (
	// maxPairMemos (pair counts, and separately positions) and
	// maxTableCells bound the result memos, whose keys are driven by user
	// queries and would otherwise grow for the whole snapshot lifetime (a
	// static KB never swaps its evaluator away). On overflow a memo is
	// flushed wholesale — rare, cheap, and it re-warms with the current
	// working set instead of freezing on the oldest one. The totals are
	// split evenly across the lock shards (each shard flushes
	// independently at total/shards). Worst case ≈ 40 MiB of pair counts,
	// as much of positions, and maxTableCells table entries ≈ 64 MiB —
	// the last only under the deviation measures.
	maxPairMemos  = 1 << 20
	maxTableCells = 1 << 22

	maxPairMemosPerShard  = maxPairMemos / evalShardCount
	maxTableCellsPerShard = maxTableCells / evalShardCount
)

// NewEvaluator builds an evaluator over a frozen graph.
func NewEvaluator(g *kb.Graph) *Evaluator {
	ev := &Evaluator{g: g}
	for i := range ev.shards {
		ev.shards[i].pairs = make(map[pairCountKey]int)
		ev.shards[i].positions = make(map[positionKey]position)
		ev.shards[i].tables = make(map[tableKey]map[kb.NodeID]int)
	}
	return ev
}

// Graph returns the frozen graph the evaluator is pinned to.
func (ev *Evaluator) Graph() *kb.Graph { return ev.g }

// Count returns the number of instances of p between start and end,
// memoised by (pattern key, pair). Cancellation aborts the underlying
// match without poisoning the memo.
func (ev *Evaluator) Count(ctx context.Context, p *pattern.Pattern, start, end kb.NodeID) (int, error) {
	key := pairCountKey{p.Key(), start, end}
	sh := ev.shardFor(key.p)
	sh.mu.Lock()
	n, ok := sh.pairs[key]
	sh.mu.Unlock()
	if ok {
		ev.hits.Add(1)
		obs.FromContext(ctx).MemoHit()
		return n, nil
	}
	ev.misses.Add(1)
	obs.FromContext(ctx).MemoMiss()
	n, promoted := ev.carriedCount(p, key)
	if !promoted {
		var err error
		n, err = match.CountContext(ctx, ev.g, p, start, end)
		if err != nil {
			return 0, err
		}
	}
	sh.mu.Lock()
	if len(sh.pairs) >= maxPairMemosPerShard {
		sh.pairs = make(map[pairCountKey]int)
	}
	sh.pairs[key] = n
	sh.mu.Unlock()
	if promoted {
		ev.promotions.Add(1)
	}
	return n, nil
}

// CountByEnd returns the per-end instance counts of p with the start
// bound and the end free — the local distribution D_l — memoised by
// (pattern key, start). The returned map is shared: callers must not
// modify it. Only the deviation measures need the whole table; the
// position measures go through LocalPosition.
func (ev *Evaluator) CountByEnd(ctx context.Context, p *pattern.Pattern, start kb.NodeID) (map[kb.NodeID]int, error) {
	key := tableKey{p.Key(), start}
	sh := ev.shardFor(key.p)
	sh.mu.Lock()
	t, ok := sh.tables[key]
	sh.mu.Unlock()
	if ok {
		ev.hits.Add(1)
		obs.FromContext(ctx).MemoHit()
		return t, nil
	}
	ev.misses.Add(1)
	obs.FromContext(ctx).MemoMiss()
	counts, promoted := ev.carriedTable(p, key)
	if !promoted {
		var err error
		if counts, err = localTable(ctx, ev.g, p, start); err != nil {
			return nil, err
		}
	}
	sh.mu.Lock()
	if sh.tableCells+len(counts) > maxTableCellsPerShard {
		sh.tables = make(map[tableKey]map[kb.NodeID]int)
		sh.tableCells = 0
	}
	sh.tables[key] = counts
	sh.tableCells += len(counts)
	sh.mu.Unlock()
	if promoted {
		ev.promotions.Add(1)
	}
	return counts, nil
}

// LocalPosition counts the end entities whose instance count with start
// strictly exceeds a (the position of the explanation in D_l). When
// limit ≥ 0 and the position provably exceeds limit, ok=false is
// returned — the "LIMIT p" pruning. It is streamLocalPosition memoised
// by (pattern key, start, a): an exact position answers every limit, a
// pruned evaluation answers every limit up to the one that pruned it.
func (ev *Evaluator) LocalPosition(ctx context.Context, p *pattern.Pattern, start kb.NodeID, a, limit int) (pos int, ok bool, err error) {
	key := positionKey{p.Key(), start, a}
	sh := ev.shardFor(key.p)
	sh.mu.Lock()
	m, have := sh.positions[key]
	sh.mu.Unlock()
	if have {
		if pos, ok, known := m.under(limit); known {
			ev.hits.Add(1)
			obs.FromContext(ctx).MemoHit()
			return pos, ok, nil
		}
	}
	ev.misses.Add(1)
	obs.FromContext(ctx).MemoMiss()
	if !have {
		if m, have = ev.carriedPosition(p, key); have {
			ev.storePosition(sh, key, m)
			ev.promotions.Add(1)
			if pos, ok, known := m.under(limit); known {
				return pos, ok, nil
			}
		}
	}
	pos, ok = streamLocalPosition(ctx, ev.g, p, start, a, limit)
	if err := ctx.Err(); err != nil {
		return 0, false, err // ok=false may be the cancellation, not a pruning
	}
	m = position{n: pos, exact: true}
	if !ok {
		m = position{n: limit}
	}
	ev.storePosition(sh, key, m)
	return pos, ok, nil
}

// storePosition records what an evaluation learnt, never replacing an
// exact position with a bound.
func (ev *Evaluator) storePosition(sh *evalShard, key positionKey, m position) {
	sh.mu.Lock()
	if len(sh.positions) >= maxPairMemosPerShard {
		sh.positions = make(map[positionKey]position)
	}
	if old := sh.positions[key]; !old.exact {
		sh.positions[key] = m
	}
	sh.mu.Unlock()
}
