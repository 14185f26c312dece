// Cross-snapshot memo carry-over. Rebuilding the evaluator on every hot
// swap is what keeps memos sound — but it also means a steady trickle
// of writes keeps the Zipf head permanently cold. Carry-over recovers
// the warmth without weakening the soundness rule: a fresh evaluator
// holds a severable link to its predecessor plus the delta's
// touched-label set, and on a memo miss it consults the predecessor
// before computing. A predecessor hit is promoted into the new
// evaluator's own shards only when it provably cannot observe the
// delta. Match counting (Count, LocalPosition, CountByEnd) inspects
// exactly the edges whose labels appear in the pattern, plus node
// identity for injectivity. Node IDs are append-only across generations
// and entity types never enter matching, so if none of the pattern's
// labels had an edge added or removed, every instance set — and
// therefore every count, position and per-end table — is unchanged.
//
// When in doubt, the link answers nothing and the memo is recomputed;
// carry-over can change cost, never values. The caller that builds
// generation n+1 severs generation n's link (DropCarry), so retired
// evaluators form no chain and at most two generations of memos are
// live at once. Promoted tables are shared by reference — they are
// immutable once stored — and reads of the predecessor go through its
// own shard locks, so carry is safe while old-snapshot readers still
// query the predecessor.

package measure

import (
	"rex/internal/kb"
	"rex/internal/pattern"
)

// carryLink ties a fresh evaluator to its predecessor: memos of the
// previous generation may be promoted when their pattern's labels avoid
// the touched set.
type carryLink struct {
	prev    *Evaluator
	touched map[kb.LabelID]struct{}
}

// NewEvaluatorFrom builds an evaluator over g seeded with a carry link
// to the previous generation's evaluator. touched is the set of labels
// with edges added or removed by the delta separating the two
// generations; memos whose patterns avoid it are promoted on first
// miss. A nil prev degrades to NewEvaluator. The caller is responsible
// for only linking generations related by a known delta — and for
// severing prev's own link (prev.DropCarry) so the chain stays at one
// hop.
func NewEvaluatorFrom(g *kb.Graph, prev *Evaluator, touched map[kb.LabelID]struct{}) *Evaluator {
	ev := NewEvaluator(g)
	if prev != nil {
		ev.carry.Store(&carryLink{prev: prev, touched: touched})
	}
	return ev
}

// DropCarry severs the link to the predecessor evaluator, releasing its
// memos to the collector. Safe to call concurrently with queries; a
// query that already loaded the link finishes its one lookup against
// the (still immutable, still lock-guarded) predecessor.
func (ev *Evaluator) DropCarry() { ev.carry.Store(nil) }

// Promotions returns the number of predecessor memos promoted into this
// evaluator — the carry-over effectiveness counter surfaced in /stats.
func (ev *Evaluator) Promotions() uint64 { return ev.promotions.Load() }

// patternUntouched reports whether none of the pattern's edge labels is
// in the touched set — the promotion soundness test.
func patternUntouched(p *pattern.Pattern, touched map[kb.LabelID]struct{}) bool {
	for _, e := range p.Edges() {
		if _, hit := touched[e.Label]; hit {
			return false
		}
	}
	return true
}

// carriedCount consults the predecessor for a pair-count memo.
func (ev *Evaluator) carriedCount(p *pattern.Pattern, key pairCountKey) (int, bool) {
	link := ev.carry.Load()
	if link == nil || !patternUntouched(p, link.touched) {
		return 0, false
	}
	sh := link.prev.shardFor(key.p)
	sh.mu.Lock()
	n, ok := sh.pairs[key]
	sh.mu.Unlock()
	return n, ok
}

// carriedTable consults the predecessor for a per-end count table. The
// returned map is shared by reference; tables are immutable once
// stored, so both generations may serve it concurrently.
func (ev *Evaluator) carriedTable(p *pattern.Pattern, key tableKey) (map[kb.NodeID]int, bool) {
	link := ev.carry.Load()
	if link == nil || !patternUntouched(p, link.touched) {
		return nil, false
	}
	sh := link.prev.shardFor(key.p)
	sh.mu.Lock()
	t, ok := sh.tables[key]
	sh.mu.Unlock()
	return t, ok
}

// carriedPosition consults the predecessor for a local-position memo.
func (ev *Evaluator) carriedPosition(p *pattern.Pattern, key positionKey) (position, bool) {
	link := ev.carry.Load()
	if link == nil || !patternUntouched(p, link.touched) {
		return position{}, false
	}
	sh := link.prev.shardFor(key.p)
	sh.mu.Lock()
	m, ok := sh.positions[key]
	sh.mu.Unlock()
	return m, ok
}
