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

// ErrGenerationConflict reports that ApplyDeltaCommitAt found the
// store at a different generation than the caller expected — a
// concurrent writer published in between. Nothing was mutated; the
// caller re-reads the current generation and decides whether its
// record is already covered or genuinely conflicts.
var ErrGenerationConflict = errors.New("live: generation conflict")

// Snapshot is one immutable knowledge-base version: a graph, the
// serving payload built for it (e.g. an explainer plus its result
// cache), a monotonic generation and the graph's content fingerprint.
// Snapshots are never mutated after publication — readers pin one with
// Manager.Current and may use it for the rest of their request even
// after newer generations are swapped in.
type Snapshot struct {
	// Generation counts published versions, starting at 1 for the
	// snapshot the Manager was constructed with. It increases by exactly
	// one per swap.
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
// pair. Writers (ApplyDeltaCommit, SwapGraphCommit and their variants)
// serialise on a mutex, build the complete next snapshot off to the
// side, and publish it with one atomic store.
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

// CommitFunc is the durability hook of a swap: called with the fully
// built next generation (graph and number) after the payload is
// constructed and immediately before the atomic publish. A write-ahead
// log appends and flushes the delta here, so by the time any reader can
// observe the new generation its delta is already durable. An error
// aborts the swap — nothing is published, the active snapshot is
// unchanged, and the caller must not acknowledge the delta.
type CommitFunc func(gen uint64, g *kb.Graph) error

// ApplyDeltaCommit replays a delta onto the current snapshot's graph
// as an O(delta) overlay generation and atomically publishes the result
// as the next generation, folding that generation into fresh CSR arrays
// first when it crosses the CompactRatio policy. The current snapshot
// keeps serving until the new one — graph and payload — is fully
// built; on any error nothing is published and the active generation
// is unchanged (the stats returned alongside an error are partial
// counts, undefined for any use beyond diagnostics). commit is the
// durability hook (see CommitFunc); a nil commit makes it a plain
// in-memory swap.
//
// A delta whose every record is a no-op (duplicate nodes and edges,
// deletions of absent edges) changes nothing, so nothing is published:
// the active snapshot — generation, fingerprint and warm result cache —
// stays in place. This makes at-least-once delta delivery idempotent
// instead of a cache flush.
func (m *Manager) ApplyDeltaCommit(d *Delta, commit CommitFunc) (*Snapshot, ApplyStats, error) {
	return m.applyDeltaCommit(d, 0, commit)
}

// ApplyDeltaCommitAt is ApplyDeltaCommit conditioned on the current
// generation: the delta is applied only if it would publish exactly
// generation next. The check runs under the writer mutex, so there is
// no window between validating the generation and mutating — a
// concurrent writer that got there first makes this call fail with
// ErrGenerationConflict without touching the store. This is the
// compare-and-swap the anti-entropy engine needs to replay a peer's
// WAL record without ever double-applying it.
func (m *Manager) ApplyDeltaCommitAt(d *Delta, next uint64, commit CommitFunc) (*Snapshot, ApplyStats, error) {
	if next == 0 {
		return nil, ApplyStats{}, fmt.Errorf("live: ApplyDeltaCommitAt: generation must be positive")
	}
	return m.applyDeltaCommit(d, next, commit)
}

// applyDeltaCommit applies d and publishes the result; a non-zero
// expect demands the published generation be exactly expect, failing
// with ErrGenerationConflict (no mutation) otherwise.
func (m *Manager) applyDeltaCommit(d *Delta, expect uint64, commit CommitFunc) (*Snapshot, ApplyStats, error) {
	if d == nil || len(d.Ops) == 0 {
		return nil, ApplyStats{}, fmt.Errorf("live: empty delta")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if expect != 0 && cur.Generation+1 != expect {
		return nil, ApplyStats{}, fmt.Errorf("%w: expected to publish generation %d, store is at %d",
			ErrGenerationConflict, expect, cur.Generation)
	}
	g, st, _, err := d.Apply(cur.Graph)
	if err != nil {
		return nil, st, err
	}
	if !st.Changed() {
		return cur, st, nil
	}
	if g.Overlay().Ratio > m.CompactRatio {
		g, st.Compacted, st.OverlayDepth = g.Compact(), true, 0
	}
	snap, err := m.publishLocked(g, cur.Generation+1, commit)
	if err != nil {
		return nil, st, err
	}
	if st.Compacted {
		m.compactions.Add(1)
	}
	return snap, st, nil
}

// SwapGraphCommit publishes an independently built graph (e.g. re-read
// from disk) as the next generation. commit is the durability hook (see
// CommitFunc): a durable store checkpoints the wholesale replacement
// there, since no delta exists that a WAL could replay to reproduce it.
func (m *Manager) SwapGraphCommit(g *kb.Graph, commit CommitFunc) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("live: SwapGraphCommit: nil graph")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publishLocked(g, m.cur.Load().Generation+1, commit)
}

// SwapGraphAt publishes an independently built graph at an explicit
// generation — the anti-entropy entry point: a lagging replica installs
// a peer's checkpoint of generation gen, jumping its own sequence
// forward to match the fleet's numbering instead of incrementing by
// one. gen must be strictly above the current generation (generations
// never move backwards, and an equal generation with different content
// would fork the fleet's history).
func (m *Manager) SwapGraphAt(g *kb.Graph, gen uint64, commit CommitFunc) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("live: SwapGraphAt: nil graph")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.cur.Load().Generation; gen <= cur {
		return nil, fmt.Errorf("live: SwapGraphAt: generation %d is not above current %d", gen, cur)
	}
	return m.publishLocked(g, gen, commit)
}

// SwapGraphRepair publishes an independently built graph at an
// explicit generation with the monotonicity requirement waived — the
// divergence-repair entry point. A replica whose history forked (same
// generation number, different content than the fleet) can only heal
// by adopting the fleet's state wholesale, and the fleet's newest
// checkpoint may sit at or below the forked local generation. The
// local generation may therefore move backwards here; that is safe
// only because the caller (the sync engine) is discarding local
// history it has proven divergent, and the routing tier's generation
// floor keeps the replica out of client-visible rotation until it has
// re-converged at or above the fleet's floor.
func (m *Manager) SwapGraphRepair(g *kb.Graph, gen uint64, commit CommitFunc) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("live: SwapGraphRepair: nil graph")
	}
	if gen == 0 {
		return nil, fmt.Errorf("live: SwapGraphRepair: generation must be positive")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.publishLocked(g, gen, commit)
}

// publishLocked builds the payload for g, runs the durability commit
// hook, and stores the snapshot as generation next. Callers hold m.mu.
func (m *Manager) publishLocked(g *kb.Graph, next uint64, commit CommitFunc) (*Snapshot, error) {
	payload, err := m.build(g)
	if err != nil {
		return nil, fmt.Errorf("live: building snapshot payload: %w", err)
	}
	if commit != nil {
		if err := commit(next, g); err != nil {
			return nil, err
		}
	}
	if err := fail.Hit("live.publish"); err != nil {
		// Fault-injection point for the crash window between a durable
		// WAL append and the in-memory publish: the delta is on disk but
		// was never acknowledged, so recovery may legitimately replay it.
		return nil, err
	}
	snap := &Snapshot{
		Generation:  next,
		Fingerprint: g.Fingerprint(),
		Graph:       g,
		Payload:     payload,
	}
	m.cur.Store(snap)
	m.swaps.Add(1)
	return snap, nil
}
