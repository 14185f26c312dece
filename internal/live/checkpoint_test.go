package live

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"rex/internal/fail"
	"rex/internal/kb"
)

// holdCheckpoints arms checkpoint.write to report its first hit on
// entered and hold every hit until release is called, then pass.
func holdCheckpoints() (entered <-chan struct{}, release func()) {
	in, gate := make(chan struct{}, 1), make(chan struct{})
	fail.EnableFunc("checkpoint.write", func() error {
		select {
		case in <- struct{}{}:
		default:
		}
		<-gate
		return nil
	})
	return in, func() { close(gate) }
}

// walFiles lists the WAL segment files in dir in replay order; the last
// is the active one.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := (&Journal{dir: dir}).segmentsOnDisk()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, s := range segs {
		out = append(out, s.name)
	}
	return out
}

// tailGens reads a tail transfer to its end and returns the generations
// of its frames; every frame must pass its CRC and the bytes must add up
// to the size the journal announced.
func tailGens(t *testing.T, r io.ReadCloser, size int64) []uint64 {
	t.Helper()
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil || int64(len(data)) != size {
		t.Fatalf("tail read %d of %d bytes: %v", len(data), size, err)
	}
	var gens []uint64
	sc := NewFrameScanner(bytes.NewReader(data))
	for {
		gen, _, err := sc.Next()
		if err == io.EOF {
			return gens
		}
		if err != nil {
			t.Fatalf("tail frame %d: %v", len(gens), err)
		}
		gens = append(gens, gen)
	}
}

// TestJournalTailSurvivesCheckpoint opens tail transfers — one inside
// wal.log, one spanning it, sealed by a checkpoint that failed, and the
// segment after it — and then lets a checkpoint above their start
// complete and collect both files. Every frame each transfer announced
// still arrives and passes its CRC, and a generation below the new
// checkpoint is refused.
func TestJournalTailSurvivesCheckpoint(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	j, g := openFresh(t, dir, JournalOptions{Fsync: FsyncNever})
	graphs := map[uint64]*kb.Graph{1: g}
	appendGen := func(gen uint64) {
		graphs[gen] = applyAndAppend(t, j, graphs[gen-1], gen, walDelta(int(gen)))
	}
	for gen := uint64(2); gen <= 5; gen++ {
		appendGen(gen)
	}
	r1, size1, n1, err := j.TailReaderSince(2)
	if err != nil || n1 != 3 {
		t.Fatalf("tail since 2 = (%d records, %v), want 3", n1, err)
	}

	// A checkpoint of generation 5 seals wal.log and fails; two more
	// records go to the segment the seal created.
	fail.Enable("checkpoint.rename")
	failed := 0
	j.CheckpointAsync(graphs[5], 5, func(error) { failed++ })
	appendGen(6)
	appendGen(7)
	r2, size2, n2, err := j.TailReaderSince(3) // waits for the checkpoint to fail
	if err != nil || n2 != 4 || failed != 1 {
		t.Fatalf("tail since 3 across two segments = (%d records, %v) after %d failed checkpoints, want 4 after 1", n2, err, failed)
	}
	fail.Reset()
	if segs := walFiles(t, dir); len(segs) != 2 || segs[0] != walName || segs[1] != segmentName(6) {
		t.Fatalf("WAL segments = %v, want wal.log sealed and a segment from 6", segs)
	}
	if _, _, _, err := j.TailReaderSince(0); !errors.Is(err, ErrBelowHorizon) {
		t.Fatalf("tail below the seed checkpoint = %v, want ErrBelowHorizon", err)
	}

	// Checkpoint 7 collects both segments under the open transfers.
	if err := j.Checkpoint(graphs[7], 7); err != nil {
		t.Fatal(err)
	}
	if segs := walFiles(t, dir); len(segs) != 1 || segs[0] != segmentName(8) {
		t.Fatalf("WAL segments after checkpoint 7 = %v, want only a fresh one from 8", segs)
	}
	if st := j.Stats(); st.WALSize != 0 || st.CheckpointGen != 7 {
		t.Fatalf("after checkpoint 7: %+v, want an empty WAL at generation 7", st)
	}
	if got := tailGens(t, r1, size1); !equalGens(got, 3, 5) {
		t.Fatalf("tail since 2 delivered generations %v, want 3..5", got)
	}
	if got := tailGens(t, r2, size2); !equalGens(got, 4, 7) {
		t.Fatalf("tail since 3 delivered generations %v, want 4..7", got)
	}
	for from := uint64(0); from < 7; from++ {
		if _, _, _, err := j.TailReaderSince(from); !errors.Is(err, ErrBelowHorizon) {
			t.Fatalf("tail since %d below checkpoint 7 = %v, want ErrBelowHorizon", from, err)
		}
	}
	if _, size, n, err := j.TailReaderSince(7); err != nil || n != 0 || size != 0 {
		t.Fatalf("tail since the checkpoint = (%d records, %d bytes, %v), want empty", n, size, err)
	}
}

func equalGens(got []uint64, lo, hi uint64) bool {
	if len(got) != int(hi-lo+1) {
		return false
	}
	for i, g := range got {
		if g != lo+uint64(i) {
			return false
		}
	}
	return true
}

// TestJournalCheckpointSupersedesWaiting: with one checkpoint in flight,
// a second trigger waits and a third replaces it — at most one runs at a
// time and the newest snapshot is the one written next. Close drains it.
func TestJournalCheckpointSupersedesWaiting(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	j, g := openFresh(t, dir, JournalOptions{Fsync: FsyncNever})
	failed := func(err error) { t.Errorf("background checkpoint: %v", err) }
	entered, release := holdCheckpoints()
	for gen := uint64(2); gen <= 4; gen++ {
		g = applyAndAppend(t, j, g, gen, walDelta(int(gen)))
		j.CheckpointAsync(g, gen, failed)
		if gen == 2 {
			<-entered
		}
	}
	release()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Checkpoints != 3 || st.CheckpointGen != 4 || st.WALSize != 0 {
		t.Fatalf("stats = %+v, want the seed, 2 and 4 written (3 superseded) and an empty WAL", st)
	}
	if gens := j.checkpointGens(); len(gens) != 1 || gens[0] != 4 {
		t.Fatalf("checkpoints on disk = %v, want [4]", gens)
	}
	if segs := walFiles(t, dir); len(segs) != 1 {
		t.Fatalf("WAL segments after the drain = %v, want only the active one", segs)
	}
}

// TestJournalCloseJoinsCheckpointer: the journal runs its checkpoints on
// one goroutine at most, and Close waits for it — afterwards the process
// has exactly the goroutines it had before OpenJournal.
func TestJournalCloseJoinsCheckpointer(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	j, err := OpenJournal(dir, JournalOptions{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Recover(); err != nil {
		t.Fatal(err)
	}
	g := baseGraph(t)
	if err := j.Checkpoint(g, 1); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(2); gen <= 20; gen++ {
		g = applyAndAppend(t, j, g, gen, walDelta(int(gen)))
		j.CheckpointAsync(g, gen, func(err error) { t.Errorf("background checkpoint: %v", err) })
		if n := runtime.NumGoroutine(); n > before+1 {
			t.Fatalf("%d goroutines with checkpoints queued, %d before OpenJournal", n, before)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.CheckpointGen != 20 {
		t.Fatalf("Close left checkpoint %d, want the last one started (20)", st.CheckpointGen)
	}
	// The checkpointer has signalled its exit when Close returns; give
	// the runtime the moment it takes to retire the goroutine.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Fatalf("%d goroutines after Close, %d before OpenJournal", n, before)
	}
	if err := j.Append(21, []byte(strings.Repeat("x", 4))); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestJournalCorruptSealedSegmentEndsReplay: a corrupt record inside a
// sealed segment ends replay there like a torn tail does — the segment
// is cut back to its valid prefix and every later record, in later
// segments too, is dropped, so new appends continue the recovered
// sequence.
func TestJournalCorruptSealedSegmentEndsReplay(t *testing.T) {
	defer fail.Reset()
	dir := t.TempDir()
	j, g := openFresh(t, dir, JournalOptions{Fsync: FsyncNever})
	g = applyAndAppend(t, j, g, 2, walDelta(2))
	want := g.Fingerprint()
	prefix := j.Stats().WALSize
	g = applyAndAppend(t, j, g, 3, walDelta(3))
	// A failing checkpoint leaves wal.log (generations 2 and 3) sealed in
	// place; 4 and 5 go to the segment the seal created.
	fail.Enable("checkpoint.rename")
	j.CheckpointAsync(g, 3, func(error) {})
	for gen := uint64(4); gen <= 5; gen++ {
		g = applyAndAppend(t, j, g, gen, walDelta(int(gen)))
	}
	j.Close()
	fail.Reset()
	if segs := walFiles(t, dir); len(segs) != 2 || segs[0] != walName {
		t.Fatalf("WAL segments = %v, want wal.log sealed and one after it", segs)
	}
	path := filepath.Join(dir, walName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[prefix+walFrameHeader] ^= 0xff // generation 3's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rg, gen, err := j2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); gen != 2 || rg.Fingerprint() != want || !st.TornTail || st.WALSize != prefix {
		t.Fatalf("recovered (gen %d, %s, %+v), want (2, %s) with a torn tail and a %d-byte WAL", gen, rg.Fingerprint(), st, want, prefix)
	}
	if segs := walFiles(t, dir); len(segs) != 1 || segs[0] != walName {
		t.Fatalf("WAL segments after the cut = %v, want wal.log alone", segs)
	}
	rg = applyAndAppend(t, j2, rg, 3, walDelta(33))
	want = rg.Fingerprint()
	j2.Close()
	j3, err := OpenJournal(dir, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if rg3, gen3, err := j3.Recover(); err != nil || gen3 != 3 || rg3.Fingerprint() != want {
		t.Fatalf("append after the cut lost: (gen %d, %v), want (3, %s)", gen3, err, want)
	}
}
