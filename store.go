package rex

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"rex/internal/kb"
	"rex/internal/live"
)

// Store is a live knowledge base: it owns a sequence of versioned,
// immutable (KB, Explainer, result cache) snapshots and hot-swaps the
// active one under traffic. Readers pin a snapshot with Current — a
// single lock-free atomic load — and keep using it for the rest of
// their request even while Apply or ReloadFrom publishes a newer
// generation. Because every generation gets a freshly built Explainer
// (and therefore a fresh result cache), swap-time cache invalidation is
// automatic: a stale answer computed on an old graph can never be
// served for a new one.
//
// Apply, ApplyAt, ReloadFrom, InstallSnapshot and RepairSnapshot each
// build a change and a generation precondition and write through one
// path (Store.commit → live.Manager.Commit). Writers are serialised
// internally and may be called concurrently with any number of readers.
type Store struct {
	mgr *live.Manager
	opt Options

	// journal is the durability sidecar (WAL + checkpoints), nil unless
	// Options.Durability.Dir was set. Appends and checkpoint triggers
	// run on the manager-serialised write path; ckptFailures counts
	// checkpoints that failed after their delta was already durable in
	// the WAL (non-fatal: a later swap retries, recovery replays the
	// longer WAL tail).
	journal      *live.Journal
	ckptFailures atomic.Uint64

	// onSwap, when set via OnSwap, is invoked after every published
	// generation with the completed SwapInfo.
	onSwap atomic.Pointer[func(SwapInfo)]
}

// OnSwap registers fn to be called once per published generation —
// deltas, reloads, installs and repairs alike, so once per Swaps
// increment — with the SwapInfo the mutating call returns; a call that
// publishes nothing (a no-op delta, a refusal, an error) never calls
// it. One hook is kept (the last registration wins); pass nil to clear
// it. The hook runs on the mutating goroutine after the publish, so it
// must be fast and must not call back into the store's write path. The
// serving tier uses it to feed swap-latency metrics.
func (s *Store) OnSwap(fn func(SwapInfo)) {
	if fn == nil {
		s.onSwap.Store(nil)
		return
	}
	s.onSwap.Store(&fn)
}

// storePayload is the per-snapshot serving state the live manager
// builds for every published graph.
type storePayload struct {
	kb *KB
	ex *Explainer
}

// StoreSnapshot is one pinned knowledge-base version. The KB and
// Explainer are immutable and safe for concurrent use; Generation and
// Fingerprint identify the version for logging and response metadata.
type StoreSnapshot struct {
	KB          *KB
	Explainer   *Explainer
	Generation  uint64
	Fingerprint string
}

// SwapInfo describes one completed snapshot swap.
type SwapInfo struct {
	// Generation and Fingerprint identify the newly active version.
	Generation  uint64
	Fingerprint string
	// KB summarises the new graph.
	KB Stats
	// Effective mutation counts; all zero for ReloadFrom, which
	// replaces the graph wholesale.
	NodesAdded, LabelsAdded, EdgesAdded, EdgesRemoved, TypesSet int
	// Overlay reports the new generation was built as an O(delta)
	// overlay; Compacted that it crossed the compaction ratio and was
	// folded into fresh CSR arrays before it was published; OverlayDepth
	// the published generation's overlay depth, 0 when Compacted (see
	// live.ApplyStats).
	Overlay      bool
	Compacted    bool
	OverlayDepth int
	// Elapsed is the wall time of the whole mutating call: parse (or
	// load), graph build, payload build (a fresh Explainer with an empty
	// cache), and publication.
	Elapsed time.Duration
}

// NewStore builds a live store serving k as generation 1. The options
// configure the Explainer built for every snapshot (including the
// per-snapshot result cache via Options.CacheSize) and are validated
// here, so a store that constructs successfully can always swap. The
// store takes ownership of k's graph: callers must not mutate k after
// construction.
//
// With Options.Durability.Dir set the store is crash-safe: if the
// directory already holds a journal, its recovered state (newest valid
// checkpoint plus WAL tail) replaces k entirely and the generation
// sequence resumes where the previous process stopped; a fresh
// directory is seeded with a checkpoint of k so the WAL always has a
// replay base. Call Close when done with a durable store.
func NewStore(k *KB, opt Options) (*Store, error) {
	if k == nil {
		return nil, fmt.Errorf("rex: NewStore: nil KB")
	}
	return newStore(opt, func() (*kb.Graph, error) { return k.g, nil })
}

// newStore builds a store over the recovered state of a durable
// journal, if it has any, and over the graph load returns otherwise:
// load runs only when the store has no journal or a fresh one.
func newStore(opt Options, load func() (*kb.Graph, error)) (*Store, error) {
	s := &Store{opt: opt}
	build := func(g *kb.Graph) (any, error) {
		snapKB := &KB{g: g}
		ex, err := NewExplainer(snapKB, opt)
		if err != nil {
			return nil, err
		}
		return &storePayload{kb: snapKB, ex: ex}, nil
	}
	var g *kb.Graph
	gen := uint64(1)
	var jn *live.Journal
	if d := opt.Durability; d.Dir != "" {
		jn2, rg, rgen, err := openJournal(d)
		if err != nil {
			return nil, err
		}
		jn = jn2
		if rg != nil {
			g, gen = rg, rgen
		}
	}
	if g == nil {
		var err error
		if g, err = load(); err != nil {
			if jn != nil {
				jn.Close() //nolint:errcheck // construction failed anyway
			}
			return nil, err
		}
	}
	mgr, err := live.NewManagerAt(g, build, gen)
	if err != nil {
		if jn != nil {
			jn.Close() //nolint:errcheck // construction failed anyway
		}
		return nil, err
	}
	s.mgr = mgr
	s.journal = jn
	if jn != nil && !jn.HasState() {
		// Seed a fresh journal with the initial graph as its first
		// checkpoint, so every future WAL record has a replay base even
		// if the process dies before the first policy-driven checkpoint.
		if err := jn.Checkpoint(mgr.Current().Graph, gen); err != nil {
			jn.Close() //nolint:errcheck
			return nil, fmt.Errorf("rex: seeding journal: %w", err)
		}
	}
	return s, nil
}

// openJournal opens the durability journal and recovers its state, if
// any. A nil recovered graph means the directory was fresh.
func openJournal(d DurabilityOptions) (*live.Journal, *kb.Graph, uint64, error) {
	pol := live.FsyncAlways
	if d.Fsync != "" {
		p, err := live.ParseFsyncPolicy(d.Fsync)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("rex: %w", err)
		}
		pol = p
	}
	jn, err := live.OpenJournal(d.Dir, live.JournalOptions{
		Fsync:           pol,
		FsyncInterval:   d.FsyncInterval,
		CheckpointEvery: d.CheckpointEvery,
		CheckpointBytes: d.CheckpointBytes,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	g, gen, err := jn.Recover()
	if err != nil {
		jn.Close() //nolint:errcheck
		return nil, nil, 0, fmt.Errorf("rex: recovering journal: %w", err)
	}
	return jn, g, gen, nil
}

// Close flushes and closes the durability journal, if any. The store's
// read path stays usable (it is purely in-memory), but further Apply or
// ReloadFrom calls on a durable store will fail. Safe to call more than
// once.
func (s *Store) Close() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// OpenStore builds a live store over the knowledge base in a file (see
// LoadKB). With Options.Durability.Dir set, a journal that already holds
// a checkpoint is authoritative: the store recovers it, exactly as
// NewStore does, and the file is only checked to exist, never decoded.
// The file seeds a fresh journal.
func OpenStore(path string, opt Options) (*Store, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, err
	}
	return newStore(opt, func() (*kb.Graph, error) {
		k, err := LoadKB(path)
		if err != nil {
			return nil, err
		}
		return k.g, nil
	})
}

// Current pins the active snapshot. The result stays valid and
// immutable for as long as the caller holds it, regardless of later
// swaps.
func (s *Store) Current() StoreSnapshot {
	return snapshotOf(s.mgr.Current())
}

func snapshotOf(sn *live.Snapshot) StoreSnapshot {
	p := sn.Payload.(*storePayload)
	return StoreSnapshot{
		KB:          p.kb,
		Explainer:   p.ex,
		Generation:  sn.Generation,
		Fingerprint: sn.Fingerprint,
	}
}

// Generation returns the active snapshot's generation (1 for a fresh
// store, +1 per published delta or reload; an install jumps it).
func (s *Store) Generation() uint64 { return s.mgr.Generation() }

// Swaps returns the number of completed snapshot swaps.
func (s *Store) Swaps() uint64 { return s.mgr.Swaps() }

// Apply streams a mutation log in the delta wire format (the TSV record
// syntax plus settype/deledge records, see internal/live), replays it
// onto the current graph and atomically publishes the result as the
// next generation. Application is all-or-nothing: on any parse or
// apply error the active snapshot is unchanged. A delta whose records
// are all no-ops changes nothing and publishes nothing — the returned
// SwapInfo then reports the unchanged current generation, keeping
// at-least-once delta delivery idempotent instead of flushing the warm
// cache. In-flight readers keep their pinned snapshot; only requests
// that call Current after Apply returns see the new version.
func (s *Store) Apply(r io.Reader) (SwapInfo, error) {
	return s.applyDelta(r, live.Next())
}

// ErrGenerationConflict is the store-level alias of
// live.ErrGenerationConflict (errors.Is works against either): an
// ApplyAt or InstallSnapshot found the store at a generation its
// precondition rules out and refused without mutating.
var ErrGenerationConflict = live.ErrGenerationConflict

// ApplyAt is Apply conditioned on the store's current generation: the
// delta is applied only if it would publish exactly generation gen,
// checked under the same lock that serialises writers — the
// compare-and-swap a replica's sync engine needs to replay a peer's
// WAL record without double-applying it when a delta broadcast lands
// concurrently. When the store is at any generation other than gen-1,
// nothing is mutated and the error wraps ErrGenerationConflict.
func (s *Store) ApplyAt(r io.Reader, gen uint64) (SwapInfo, error) {
	return s.applyDelta(r, live.Exactly(gen))
}

// applyDelta parses one delta and commits it under at.
func (s *Store) applyDelta(r io.Reader, at live.At) (SwapInfo, error) {
	t0 := time.Now()
	d, err := live.ParseDelta(r)
	if err != nil {
		return SwapInfo{}, err
	}
	return s.commit(live.Change{Delta: d}, at, t0)
}

// commit is the store's one write path: every mutator builds its change
// and precondition and ends here. It picks the journal hook for the
// change, commits through the manager, fills the SwapInfo and, only
// when a generation was published, calls the OnSwap hook. t0 is when
// the mutating call started.
func (s *Store) commit(change live.Change, at live.At, t0 time.Time) (SwapInfo, error) {
	snap, st, published, err := s.mgr.Commit(change, at, s.journalHook(change))
	if err != nil {
		return SwapInfo{}, err
	}
	ss := snapshotOf(snap)
	info := SwapInfo{
		Generation:   ss.Generation,
		Fingerprint:  ss.Fingerprint,
		KB:           ss.KB.Stats(),
		NodesAdded:   st.NodesAdded,
		LabelsAdded:  st.LabelsAdded,
		EdgesAdded:   st.EdgesAdded,
		EdgesRemoved: st.EdgesRemoved,
		TypesSet:     st.TypesSet,
		Overlay:      st.Overlay,
		Compacted:    st.Compacted,
		OverlayDepth: st.OverlayDepth,
		Elapsed:      time.Since(t0),
	}
	if fn := s.onSwap.Load(); fn != nil && published {
		(*fn)(info)
	}
	return info, nil
}

// journalHook returns the durability hook of a commit of change, nil
// for a store without a journal. A delta is appended to the WAL and,
// when the checkpoint policy says so, triggers an asynchronous
// checkpoint. A whole graph has no delta a WAL replay could reproduce,
// so it is checkpointed synchronously, and a failure aborts the
// publish: acknowledging an unjournaled replacement would lose it on
// the next crash.
func (s *Store) journalHook(change live.Change) live.CommitFunc {
	switch {
	case s.journal == nil:
		return nil
	case change.Delta == nil:
		return func(gen uint64, g *kb.Graph) error { return s.journal.Checkpoint(g, gen) }
	}
	return func(gen uint64, g *kb.Graph) error {
		if err := s.journal.Append(gen, change.Delta.AppendWire(nil)); err != nil {
			return err
		}
		if s.journal.ShouldCheckpoint() {
			// The delta is already durable in the WAL, so a checkpoint
			// only bounds recovery: it runs on the journal's
			// checkpointer and the ack does not wait for it. A failed
			// one is counted and retried by a later swap, and recovery
			// replays the longer WAL tail in the meantime.
			s.journal.CheckpointAsync(g, gen, func(error) { s.ckptFailures.Add(1) })
		}
		return nil
	}
}

// LiveStats reports the write-path counters of the store, cumulative
// since construction (except OverlayDepth, which describes the
// currently active snapshot).
type LiveStats struct {
	// OverlayDepth is the active snapshot's overlay depth: 0 for a
	// plain graph, k after k stacked O(delta) applies over its base
	// arrays — the last fold's generation or a full build.
	OverlayDepth int
	// Compactions counts folds of the overlay chain into fresh CSR
	// arrays, each done by the delta that crossed the compaction ratio.
	Compactions uint64
	// ResultsCarried and ResultsDropped always read 0: every swap
	// publishes an empty result cache, and the fields stay for callers
	// compiled against them.
	ResultsCarried, ResultsDropped uint64
}

// LiveStats returns a snapshot of the store's write-path counters.
func (s *Store) LiveStats() LiveStats {
	return LiveStats{
		OverlayDepth: s.mgr.Current().Graph.Overlay().Depth,
		Compactions:  s.mgr.Compactions(),
	}
}

// DurabilityStats reports the state of the store's crash-safety
// journal. Enabled is false (and every other field zero) for a store
// built without Options.Durability.Dir.
type DurabilityStats struct {
	// Enabled reports whether the store has a journal at all.
	Enabled bool
	// Appends and AppendedBytes count WAL records and bytes written
	// since the journal was opened; Fsyncs the WAL flushes issued.
	Appends, AppendedBytes, Fsyncs uint64
	// Checkpoints counts checkpoints completed since open;
	// CheckpointFailures those that failed after their delta was
	// already durable (non-fatal, retried on a later swap).
	Checkpoints, CheckpointFailures uint64
	// Replayed is the number of WAL records replayed at boot; TornTail
	// reports that recovery dropped a torn or corrupt final record (the
	// crash window of an in-flight append).
	Replayed int
	TornTail bool
	// WALSize is the WAL's current size in bytes; CheckpointGen the
	// newest on-disk checkpoint's generation.
	WALSize       int64
	CheckpointGen uint64
}

// DurabilityStats snapshots the journal counters; safe to call from any
// goroutine.
func (s *Store) DurabilityStats() DurabilityStats {
	if s.journal == nil {
		return DurabilityStats{}
	}
	js := s.journal.Stats()
	return DurabilityStats{
		Enabled:            true,
		Appends:            js.Appends,
		AppendedBytes:      js.AppendedBytes,
		Fsyncs:             js.Fsyncs,
		Checkpoints:        js.Checkpoints,
		CheckpointFailures: s.ckptFailures.Load(),
		Replayed:           js.Replayed,
		TornTail:           js.TornTail,
		WALSize:            js.WALSize,
		CheckpointGen:      js.CheckpointGen,
	}
}

// ReloadFrom re-reads a knowledge base from disk (see LoadKB) and
// publishes it wholesale as the next generation — the recovery path
// when the delta stream and the authoritative file have diverged.
func (s *Store) ReloadFrom(path string) (SwapInfo, error) {
	t0 := time.Now()
	k, err := LoadKB(path)
	if err != nil {
		return SwapInfo{}, err
	}
	return s.commit(live.Change{Graph: k.g}, live.Next(), t0)
}
