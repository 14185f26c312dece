package live

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rex/internal/fail"
	"rex/internal/kb"
)

// ErrGenerationConflict reports that a Commit's precondition (see At)
// did not hold — typically a concurrent writer published in between.
// Nothing was mutated; the caller re-reads the current generation and
// decides whether its change is already covered or genuinely conflicts.
var ErrGenerationConflict = errors.New("live: generation conflict")

// Snapshot is one immutable knowledge-base version: a graph, the
// serving payload built for it (e.g. an explainer plus its result
// cache), a monotonic generation and the graph's content fingerprint.
// Snapshots are never mutated after publication — readers pin one with
// Manager.Current and may use it for the rest of their request even
// after newer generations are swapped in.
type Snapshot struct {
	// Generation numbers published versions, starting at 1 for the
	// snapshot the Manager was constructed with; see At for how a
	// commit moves it.
	Generation uint64
	// Fingerprint is the graph's content hash (kb.Graph.Fingerprint).
	Fingerprint string
	// Graph is the knowledge base of this version.
	Graph *kb.Graph
	// Payload is the per-snapshot serving state produced by the
	// Manager's BuildFunc. Because every snapshot carries its own
	// payload, result caches are invalidated by construction on swap:
	// the new generation starts with a fresh cache and the old one is
	// unreachable to new requests.
	Payload any
}

// BuildFunc constructs the per-snapshot serving payload for a freshly
// built graph. It runs once per swap, before the snapshot is
// published; an error aborts the swap and keeps the current snapshot
// active. It sees only the new graph, so every payload starts cold.
type BuildFunc func(g *kb.Graph) (any, error)

// Manager owns the active snapshot and serialises its replacement.
//
// Reads are epoch-style and lock-free: Current is a single
// atomic.Pointer load, so request handlers pin a snapshot with no
// contention and in-flight work never observes a torn (graph, payload)
// pair. Commit, the one writer, serialises on a mutex, checks its
// generation precondition, builds the complete next snapshot off to the
// side, and publishes it with one atomic store.
type Manager struct {
	build BuildFunc

	// CompactRatio bounds the overlay chain by size, never by age: when
	// a delta-built generation's materialised half-edges exceed
	// CompactRatio of the base CSR, the manager folds it into fresh CSR
	// arrays (kb.Graph.Compact) under the writer's lock, before the
	// generation is published, so the delta's snapshot is plain CSR.
	// Every per-generation structure of an overlay costs the delta, not
	// the chain's length, so the number of stacked generations needs no
	// bound of its own. Set it before traffic starts; NewManager sets the
	// default (0.25).
	CompactRatio float64

	mu  sync.Mutex // serialises writers; readers never take it
	cur atomic.Pointer[Snapshot]

	swaps       atomic.Uint64 // completed swaps (generation - 1)
	compactions atomic.Uint64 // folds published
}

// DefaultCompactRatio is the default compaction policy: fold the overlay
// chain once the materialised patch spans reach a quarter of the base
// CSR (at that point the memory sharing no longer pays for the extra
// page-table indirection).
const DefaultCompactRatio = 0.25

// DefaultCompactDepth is kept only for callers compiled against it.
//
// Deprecated: the manager folds on size alone (CompactRatio), never on
// the number of stacked generations. The value is math.MaxInt, so a
// depth is never at or past it.
const DefaultCompactDepth = math.MaxInt

// NewManager builds g's payload and installs it as generation 1.
func NewManager(g *kb.Graph, build BuildFunc) (*Manager, error) {
	return NewManagerAt(g, build, 1)
}

// NewManagerAt is NewManager with an explicit initial generation, the
// recovery entry point: a store rebuilt from a checkpoint plus a WAL
// tail resumes the generation sequence it crashed at, so generation
// numbers stay comparable across restarts (and across the crash-free
// run the recovery tests diff against).
func NewManagerAt(g *kb.Graph, build BuildFunc, gen uint64) (*Manager, error) {
	if g == nil {
		return nil, fmt.Errorf("live: NewManager: nil graph")
	}
	if gen == 0 {
		return nil, fmt.Errorf("live: NewManagerAt: generation must be positive")
	}
	if build == nil {
		build = func(*kb.Graph) (any, error) { return nil, nil }
	}
	payload, err := build(g)
	if err != nil {
		return nil, fmt.Errorf("live: building initial snapshot: %w", err)
	}
	m := &Manager{build: build, CompactRatio: DefaultCompactRatio}
	m.cur.Store(&Snapshot{
		Generation:  gen,
		Fingerprint: g.Fingerprint(),
		Graph:       g,
		Payload:     payload,
	})
	return m, nil
}

// Current returns the active snapshot. It is lock-free and safe to call
// from any number of goroutines; the returned snapshot stays valid (and
// immutable) even after later swaps.
func (m *Manager) Current() *Snapshot { return m.cur.Load() }

// Generation returns the active snapshot's generation.
func (m *Manager) Generation() uint64 { return m.cur.Load().Generation }

// Swaps returns the number of completed snapshot swaps since
// construction.
func (m *Manager) Swaps() uint64 { return m.swaps.Load() }

// Compactions returns the number of folds of the overlay chain into
// fresh CSR arrays published since construction.
func (m *Manager) Compactions() uint64 { return m.compactions.Load() }

// CommitFunc is the durability hook of a Commit: called under the
// writer's lock with the fully built next generation (graph and
// number), immediately before the atomic publish, and never for a
// refused precondition or a no-op delta. A write-ahead log appends the
// delta here, so by the time any reader can observe the new generation
// it is durable. An error aborts the swap — nothing is published, and
// the caller must not acknowledge the change.
type CommitFunc func(gen uint64, g *kb.Graph) error

// Change is what a Commit publishes: set exactly one of Delta and
// Graph. A Delta is replayed onto the current snapshot's graph as an
// O(delta) overlay generation (see Delta.Apply); a Graph is an
// independently built graph (re-read from disk, or a peer's checkpoint)
// that replaces the current one wholesale.
type Change struct {
	Delta *Delta
	Graph *kb.Graph
}

// At is the generation precondition of a Commit: given the current
// generation, the generation to publish and whether that is allowed.
// Build one with Next, Exactly, Above or RepairAt.
type At func(cur uint64) (next uint64, ok bool)

// Next publishes the current generation + 1 and never refuses.
func Next() At { return func(cur uint64) (uint64, bool) { return cur + 1, true } }

// Exactly publishes generation n if it is the current + 1: the
// compare-and-swap a replica replays a peer's WAL record through, so a
// concurrent writer that got there first is never applied twice.
func Exactly(n uint64) At { return func(cur uint64) (uint64, bool) { return n, n == cur+1 } }

// Above publishes generation n if it is above the current one: a
// lagging replica jumps forward to a peer's checkpoint. An equal
// generation with different content would fork the fleet's history.
func Above(n uint64) At { return func(cur uint64) (uint64, bool) { return n, n > cur } }

// RepairAt publishes generation n for any n ≥ 1, even at or below the
// current generation: the divergence repair, which adopts the fleet's
// checkpoint wholesale over a forked history. Moving backwards is safe
// only because the caller (the sync engine) discards history it has
// proven divergent, and the routing tier's generation floor keeps the
// replica out of rotation until it has re-converged.
func RepairAt(n uint64) At { return func(uint64) (uint64, bool) { return n, n >= 1 } }

// Commit publishes change at the generation at names; it is the
// Manager's only writer. The precondition is checked under the writer's
// lock, so nothing can publish between the check and the swap; a
// refused commit wraps ErrGenerationConflict and changes nothing.
//
// A delta that crosses CompactRatio is folded into fresh CSR arrays
// first (ApplyStats.Compacted). A delta whose every record is a no-op
// changes nothing, so nothing is published: Commit returns the active
// snapshot, warm result cache and all, with published false — so
// at-least-once delta delivery is idempotent, not a cache flush. A
// Graph change always publishes, with zero stats.
//
// The current snapshot keeps serving until the new one — graph and
// payload — is fully built. commit is the durability hook (see
// CommitFunc), nil for a plain in-memory swap. On any error nothing is
// published (stats returned alongside an error are partial counts, for
// diagnostics only).
func (m *Manager) Commit(change Change, at At, commit CommitFunc) (snap *Snapshot, st ApplyStats, published bool, err error) {
	switch {
	case (change.Delta == nil) == (change.Graph == nil):
		return nil, st, false, fmt.Errorf("live: Commit needs exactly one of a delta and a graph")
	case change.Delta != nil && len(change.Delta.Ops) == 0:
		return nil, st, false, fmt.Errorf("live: empty delta")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	next, ok := at(cur.Generation)
	if !ok {
		return nil, st, false, fmt.Errorf("%w: cannot publish generation %d, store is at %d",
			ErrGenerationConflict, next, cur.Generation)
	}
	g := change.Graph
	if change.Delta != nil {
		if g, st, _, err = change.Delta.Apply(cur.Graph); err != nil {
			return nil, st, false, err
		}
		if !st.Changed() {
			return cur, st, false, nil
		}
		if g.Overlay().Ratio > m.CompactRatio {
			g, st.Compacted, st.OverlayDepth = g.Compact(), true, 0
		}
	}
	payload, err := m.build(g)
	if err != nil {
		return nil, st, false, fmt.Errorf("live: building snapshot payload: %w", err)
	}
	if commit != nil {
		if err := commit(next, g); err != nil {
			return nil, st, false, err
		}
	}
	if err := fail.Hit("live.publish"); err != nil {
		// Fault-injection point for the crash window between a durable
		// WAL append and the in-memory publish: the delta is on disk but
		// was never acknowledged, so recovery may legitimately replay it.
		return nil, st, false, err
	}
	snap = &Snapshot{
		Generation:  next,
		Fingerprint: g.Fingerprint(),
		Graph:       g,
		Payload:     payload,
	}
	m.cur.Store(snap)
	m.swaps.Add(1)
	if st.Compacted {
		m.compactions.Add(1)
	}
	return snap, st, true, nil
}
