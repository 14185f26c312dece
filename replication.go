package rex

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"rex/internal/kb"
	"rex/internal/live"
)

// Anti-entropy source and sink APIs: a store can serve its own state to
// a lagging peer (SyncCheckpoint, WALTailReader) and install a peer's
// state into itself (InstallSnapshot). The serving tier exposes the source
// side over /admin/snapshot and /admin/wal; internal/sync drives the
// sink side.

// ErrBelowWALHorizon reports that a requested WAL position has been
// garbage-collected by a checkpoint: the peer must transfer the full
// checkpoint instead of a tail. It is the store-level alias of
// live.ErrBelowHorizon, so errors.Is works against either.
var ErrBelowWALHorizon = live.ErrBelowHorizon

// CheckpointHandle is a readable snapshot of the store's durable state:
// the newest binary checkpoint for a durable store, or the current
// in-memory graph serialized on demand for a store without a journal.
// The reader supports seeking, so HTTP range requests (resumed
// transfers) cost no re-serialization. Close releases the underlying
// file, if any.
type CheckpointHandle struct {
	// Reader holds the binary snapshot bytes (kb binary format).
	Reader io.ReadSeeker
	// Generation and Fingerprint identify the snapshot's version.
	Generation  uint64
	Fingerprint string
	// Size is the total byte length of the snapshot.
	Size int64

	closer io.Closer
}

// Close releases the handle's underlying file, if any.
func (h *CheckpointHandle) Close() error {
	if h.closer == nil {
		return nil
	}
	return h.closer.Close()
}

// SyncCheckpoint returns the newest checkpoint the store can serve to a
// catching-up peer. A durable store serves its newest on-disk
// checkpoint file (the open descriptor survives checkpoint GC, so a
// long transfer is never cut by a concurrent checkpoint); a store
// without a journal serializes the currently published graph instead.
func (s *Store) SyncCheckpoint() (*CheckpointHandle, error) {
	if s.journal != nil {
		f, gen, fp, err := s.journal.OpenCheckpoint()
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close() //nolint:errcheck // already failing
			return nil, fmt.Errorf("rex: checkpoint stat: %w", err)
		}
		return &CheckpointHandle{
			Reader:      f,
			Generation:  gen,
			Fingerprint: fp,
			Size:        st.Size(),
			closer:      f,
		}, nil
	}
	cur := s.mgr.Current()
	var buf bytes.Buffer
	if err := cur.Graph.WriteBinary(&buf); err != nil {
		return nil, fmt.Errorf("rex: serializing snapshot: %w", err)
	}
	return &CheckpointHandle{
		Reader:      bytes.NewReader(buf.Bytes()),
		Generation:  cur.Generation,
		Fingerprint: cur.Fingerprint,
		Size:        int64(buf.Len()),
	}, nil
}

// WALTailReader returns a reader over the store's WAL records above
// generation from, in the on-disk frame encoding (see live.EncodeFrame),
// plus their total byte size and record count, without materializing
// the tail. The caller must Close the reader. ErrBelowWALHorizon means
// the records were garbage-collected by a checkpoint and the peer needs
// SyncCheckpoint first. A store without a journal has no tail to serve:
// it returns an empty tail when the peer is current and
// ErrBelowWALHorizon otherwise.
func (s *Store) WALTailReader(from uint64) (r io.ReadCloser, size int64, records int, err error) {
	if s.journal != nil {
		return s.journal.TailReaderSince(from)
	}
	if from >= s.mgr.Generation() {
		return io.NopCloser(bytes.NewReader(nil)), 0, 0, nil
	}
	return nil, 0, 0, ErrBelowWALHorizon
}

// InstallSnapshot reads a binary snapshot (as served by SyncCheckpoint
// on a peer) and publishes it at exactly generation gen, jumping the
// store's sequence forward to the fleet's numbering. gen must be above
// the current generation, else the error wraps ErrGenerationConflict
// (a concurrent write got there first). A non-empty wantFingerprint is
// verified against the loaded graph before anything is published — a
// mismatch means the transfer corrupted or the peer diverged, and the
// active snapshot stays untouched. On a durable store the installed
// snapshot is checkpointed before it is published (a failure aborts
// the install, like ReloadFrom), so a crash right after the install
// recovers into the installed state, not behind it.
func (s *Store) InstallSnapshot(r io.Reader, gen uint64, wantFingerprint string) (SwapInfo, error) {
	return s.installSnapshot(r, wantFingerprint, live.Above(gen))
}

// RepairSnapshot is InstallSnapshot with the generation-monotonicity
// requirement waived — the divergence-repair entry point. A store
// whose history forked (same generation as the fleet, different
// content) heals by adopting the fleet's checkpoint wholesale, which
// may sit at or below the forked local generation; the local sequence
// then moves backwards to the fleet's truthful position and the WAL
// tail replays forward from there. On a durable store the repair is
// checkpointed before publication, and that checkpoint garbage-
// collects the forked WAL and any forked higher-numbered checkpoint,
// so a later recovery cannot resurrect the divergent history.
func (s *Store) RepairSnapshot(r io.Reader, gen uint64, wantFingerprint string) (SwapInfo, error) {
	return s.installSnapshot(r, wantFingerprint, live.RepairAt(gen))
}

func (s *Store) installSnapshot(r io.Reader, wantFingerprint string, at live.At) (SwapInfo, error) {
	t0 := time.Now()
	g, err := kb.ReadBinary(r)
	if err != nil {
		return SwapInfo{}, fmt.Errorf("rex: reading snapshot: %w", err)
	}
	if wantFingerprint != "" && g.Fingerprint() != wantFingerprint {
		return SwapInfo{}, fmt.Errorf("rex: snapshot fingerprint %s does not match expected %s",
			g.Fingerprint(), wantFingerprint)
	}
	return s.commit(live.Change{Graph: g}, at, t0)
}
