package rex

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rex/internal/fail"
	"rex/internal/kb"
)

// durableOptions is the store configuration the durability tests share:
// a small checkpoint interval so soaks cross checkpoint boundaries, and
// fsync on every append so acknowledged means on-disk.
func durableOptions(dir string) Options {
	return Options{
		Measure:   "size",
		CacheSize: 8,
		Durability: DurabilityOptions{
			Dir:             dir,
			Fsync:           "always",
			CheckpointEvery: 3,
		},
	}
}

func durableKB(t *testing.T) *KB {
	t.Helper()
	k, err := ReadKB(strings.NewReader(storeBaseTSV))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// soakDelta returns the delta producing generation i+2 from generation
// i+1: a fresh node chained onto alice.
func soakDelta(i int) string {
	return fmt.Sprintf("node\tw%d\tperson\nedge\talice\tw%d\tknows\n", i, i)
}

// soakOracle runs the crash-free reference: the same deltas applied to
// a non-durable store, returning fingerprint-by-generation (index g
// holds generation g; index 0 is unused).
func soakOracle(t *testing.T, deltas []string) []string {
	t.Helper()
	st, err := NewStore(durableKB(t), Options{Measure: "size"})
	if err != nil {
		t.Fatal(err)
	}
	oracle := make([]string, len(deltas)+2)
	oracle[1] = st.Current().Fingerprint
	for i, d := range deltas {
		info, err := st.Apply(strings.NewReader(d))
		if err != nil {
			t.Fatal(err)
		}
		if info.Generation != uint64(i+2) {
			t.Fatalf("oracle generation = %d, want %d", info.Generation, i+2)
		}
		oracle[i+2] = info.Fingerprint
	}
	return oracle
}

func TestStoreDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ds := st.DurabilityStats(); !ds.Enabled || ds.CheckpointGen != 1 {
		t.Fatalf("fresh durable store stats = %+v, want enabled with seed checkpoint at 1", ds)
	}
	var want string
	for i := 0; i < 5; i++ {
		info, err := st.Apply(strings.NewReader(soakDelta(i)))
		if err != nil {
			t.Fatal(err)
		}
		want = info.Fingerprint
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same directory with a DIFFERENT seed KB: the
	// journal's recovered state wins, generation numbering resumes.
	seed, err := ReadKB(strings.NewReader("node\tzelda\tperson\n"))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(seed, durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Generation(); got != 6 {
		t.Fatalf("recovered generation = %d, want 6", got)
	}
	if got := st2.Current().Fingerprint; got != want {
		t.Fatalf("recovered fingerprint = %s, want %s", got, want)
	}
	if st2.Current().KB.g.NodeByName("zelda") != kb.InvalidNode {
		t.Fatal("seed KB leaked into the recovered store")
	}
	// CheckpointEvery=3 means the 5 appends checkpointed at least once,
	// so recovery replayed only the tail.
	if ds := st2.DurabilityStats(); ds.CheckpointGen < 4 || ds.Replayed > 2 {
		t.Fatalf("recovered stats = %+v, want checkpoint >= 4 and <= 2 replayed", ds)
	}
	// The recovered store keeps serving and mutating.
	res, err := st2.Current().Explainer.Explain("alice", "w3")
	if err != nil || len(res.Explanations) == 0 {
		t.Fatalf("recovered query = (%v, %v), want an explanation", res, err)
	}
	if _, err := st2.Apply(strings.NewReader(soakDelta(9))); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDurableNoopDeltaNotJournaled(t *testing.T) {
	st, err := NewStore(durableKB(t), durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	info, err := st.Apply(strings.NewReader("edge\talice\tbob\tknows\n"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 1 {
		t.Fatalf("no-op delta published generation %d", info.Generation)
	}
	if ds := st.DurabilityStats(); ds.Appends != 0 {
		t.Fatalf("no-op delta reached the WAL: %+v", ds)
	}
	// Failed deltas don't reach the WAL either.
	if _, err := st.Apply(strings.NewReader("edge\tghost\tbob\tknows\n")); err == nil {
		t.Fatal("bad delta accepted")
	}
	if ds := st.DurabilityStats(); ds.Appends != 0 {
		t.Fatalf("failed delta reached the WAL: %+v", ds)
	}
}

func TestStoreDurableReloadFromCheckpoints(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(strings.NewReader(soakDelta(0))); err != nil {
		t.Fatal(err)
	}
	path := writeTempKB(t, storeBaseTSV)
	info, err := st.ReloadFrom(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds := st.DurabilityStats(); ds.CheckpointGen != info.Generation {
		t.Fatalf("reload did not checkpoint: stats %+v, generation %d", ds, info.Generation)
	}
	st.Close()

	st2, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Generation() != info.Generation || st2.Current().Fingerprint != info.Fingerprint {
		t.Fatalf("recovered (gen %d, %s), want the reloaded (gen %d, %s)",
			st2.Generation(), st2.Current().Fingerprint, info.Generation, info.Fingerprint)
	}

	// A failed reload-checkpoint aborts the swap: nothing acknowledged,
	// nothing published.
	defer fail.Reset()
	fail.Enable("checkpoint.write")
	if _, err := st2.ReloadFrom(path); err == nil {
		t.Fatal("reload with failing checkpoint succeeded")
	}
	fail.Reset()
	if st2.Generation() != info.Generation {
		t.Fatal("aborted reload bumped the generation")
	}
}

func writeTempKB(t *testing.T, tsv string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := os.WriteFile(path, []byte(tsv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCrashRecoverySoak is the fault-injection soak of the durability
// tentpole: for every failpoint on the write path, crash a durable
// store mid-apply at several positions (straddling checkpoint
// boundaries), reopen the directory, and assert the recovered state is
// a crash-free state at or past the last acknowledged generation — no
// acknowledged delta is ever lost, and an unacknowledged one is either
// fully in or fully out (at-least-once, never torn).
func TestCrashRecoverySoak(t *testing.T) {
	const nDeltas = 8
	deltas := make([]string, nDeltas)
	for i := range deltas {
		deltas[i] = soakDelta(i)
	}
	oracle := soakOracle(t, deltas)
	finalGen := uint64(nDeltas + 1)

	points := []string{
		"wal.append",        // injected error before the frame is written
		"wal.append.torn",   // crash mid-write: half a frame on disk
		"wal.sync",          // fsync fails inside the sync path
		"wal.sync.error",    // write succeeded, flush layer fails
		"checkpoint.write",  // crash mid-checkpoint: partial temp file
		"checkpoint.rename", // checkpoint durable as temp, never renamed
		"checkpoint.gc",     // new checkpoint durable, old files + WAL remain
		"live.publish",      // delta durable in WAL, crash before publish
	}
	// Crash positions 3 and 5 straddle the CheckpointEvery=3 boundary
	// (the 3rd append triggers the checkpoint attempt); 1 exercises the
	// young-journal path.
	crashAts := []int{1, 3, 5}

	for _, point := range points {
		for _, crashAt := range crashAts {
			t.Run(fmt.Sprintf("%s@%d", point, crashAt), func(t *testing.T) {
				defer fail.Reset()
				dir := t.TempDir()
				st, err := NewStore(durableKB(t), durableOptions(dir))
				if err != nil {
					t.Fatal(err)
				}
				acked := uint64(1)
				for i := 0; i <= crashAt; i++ {
					if i == crashAt {
						fail.EnableTimes(point, 1)
					}
					info, err := st.Apply(strings.NewReader(deltas[i]))
					if i == crashAt {
						fail.Reset()
						// The injected fault may or may not surface as an
						// error (checkpoint failures are absorbed); either
						// way the process "crashes" here — the store is
						// abandoned without Close.
						if err == nil {
							acked = info.Generation
						}
						break
					}
					if err != nil {
						t.Fatalf("apply %d before the failpoint: %v", i, err)
					}
					acked = info.Generation
				}

				// Reopen the directory as a fresh process would.
				st2, err := NewStore(durableKB(t), durableOptions(dir))
				if err != nil {
					t.Fatalf("recovery after %s: %v", point, err)
				}
				defer st2.Close()
				gen := st2.Generation()
				if gen < acked {
					t.Fatalf("lost acknowledged delta: recovered generation %d < acked %d", gen, acked)
				}
				if gen >= uint64(len(oracle)) {
					t.Fatalf("recovered generation %d past the oracle", gen)
				}
				if got := st2.Current().Fingerprint; got != oracle[gen] {
					t.Fatalf("recovered generation %d fingerprint = %s, want crash-free %s", gen, got, oracle[gen])
				}

				// The recovered store finishes the run and converges on the
				// crash-free final state.
				for g := gen; g < finalGen; g++ {
					info, err := st2.Apply(strings.NewReader(deltas[g-1]))
					if err != nil {
						t.Fatalf("post-recovery apply for generation %d: %v", g+1, err)
					}
					if info.Generation != g+1 || info.Fingerprint != oracle[g+1] {
						t.Fatalf("post-recovery generation %d = %s, want %s", info.Generation, info.Fingerprint, oracle[g+1])
					}
				}
				res, err := st2.Current().Explainer.Explain("alice", fmt.Sprintf("w%d", nDeltas-1))
				if err != nil || len(res.Explanations) == 0 {
					t.Fatalf("converged store query = (%v, %v), want an explanation", res, err)
				}
			})
		}
	}
}

// gateFailpoint arms point with a hook that reports its first hit on
// entered, holds every hit until release is closed, and then returns
// err. The hook runs on the journal's checkpointer goroutine.
func gateFailpoint(point string, err error) (entered <-chan struct{}, release func()) {
	in, gate := make(chan struct{}, 1), make(chan struct{})
	fail.EnableFunc(point, func() error {
		select {
		case in <- struct{}{}:
		default:
		}
		<-gate
		return err
	})
	return in, func() { close(gate) }
}

// journalFiles lists the journal directory's checkpoint files and WAL
// segment files (wal.log and wal-<gen>.log).
func journalFiles(t *testing.T, dir string) (ckpts, wal []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.HasPrefix(name, "checkpoint-"):
			ckpts = append(ckpts, name)
		case strings.HasPrefix(name, "wal"):
			wal = append(wal, name)
		}
	}
	return ckpts, wal
}

// TestCrashDuringBackgroundCheckpoint crashes a durable store while a
// checkpoint is in flight on the journal's checkpointer: the checkpoint
// is held at each of its failpoints while deltas keep arriving — each is
// acknowledged without waiting for it, one of them triggering the next
// checkpoint behind it — and then fails there, the store is abandoned,
// and the directory is recovered. Nothing acknowledged is lost, the
// recovered state is the crash-free oracle's, and the recovered store
// converges on the oracle's final state across a clean restart.
func TestCrashDuringBackgroundCheckpoint(t *testing.T) {
	const nDeltas = 12
	deltas := make([]string, nDeltas)
	for i := range deltas {
		deltas[i] = soakDelta(i)
	}
	oracle := soakOracle(t, deltas)
	for _, point := range []string{"checkpoint.write", "checkpoint.rename", "checkpoint.gc"} {
		t.Run(point, func(t *testing.T) {
			defer fail.Reset()
			dir := t.TempDir()
			st, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			entered, release := gateFailpoint(point, fmt.Errorf("%w at %s", fail.ErrInjected, point))
			var acked uint64
			for i := 0; i < 7; i++ { // the 3rd and 6th appends trigger checkpoints
				info, err := st.Apply(strings.NewReader(deltas[i]))
				if err != nil {
					t.Fatalf("apply %d with a checkpoint in flight: %v", i, err)
				}
				acked = info.Generation
				if i == 2 {
					<-entered // the checkpoint of generation 4 is held at point
				}
			}
			release()
			fail.Reset()

			// The crashed store is abandoned; reopening the directory takes
			// it over from the journal still checkpointing in the background.
			st2, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatalf("recovery after a crash at %s: %v", point, err)
			}
			if gen := st2.Generation(); gen != acked || st2.Current().Fingerprint != oracle[gen] {
				t.Fatalf("recovered generation %d (%s), want the acknowledged %d (%s)",
					gen, st2.Current().Fingerprint, acked, oracle[acked])
			}
			for g := acked; g < nDeltas+1; g++ {
				if _, err := st2.Apply(strings.NewReader(deltas[g-1])); err != nil {
					t.Fatalf("post-recovery apply for generation %d: %v", g+1, err)
				}
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, err := NewStore(durableKB(t), durableOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer st3.Close()
			if gen := st3.Generation(); gen != nDeltas+1 || st3.Current().Fingerprint != oracle[gen] {
				t.Fatalf("restart after convergence: generation %d (%s), want %d (%s)",
					gen, st3.Current().Fingerprint, nDeltas+1, oracle[nDeltas+1])
			}
			// Draining the abandoned journal runs what it still had queued
			// and shows the held checkpoint was counted as failed.
			st.Close() //nolint:errcheck // the crashed store's journal
			if ds := st.DurabilityStats(); ds.CheckpointFailures == 0 {
				t.Fatalf("crashed store's stats = %+v, want the failed checkpoint counted", ds)
			}
		})
	}
}

// TestRepairDuringBackgroundCheckpoint: a replica whose history forked
// is repaired onto the fleet's lower generation while a checkpoint of
// its forked history is still being written. The repair waits for it,
// and then no checkpoint and no WAL segment above the repair generation
// is left behind, so a restart lands on the fleet's state.
func TestRepairDuringBackgroundCheckpoint(t *testing.T) {
	defer fail.Reset()
	fleet, err := NewStore(durableKB(t), Options{Measure: "size"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := fleet.Apply(strings.NewReader(soakDelta(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := fleet.Current() // generation 3

	dir := t.TempDir()
	st, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	entered, release := gateFailpoint("checkpoint.write", nil)
	for i := 0; i < 5; i++ { // generations 2..6; the 3rd append triggers a checkpoint of 4
		if _, err := st.Apply(strings.NewReader(fmt.Sprintf("node\tf%d\tperson\nedge\tbob\tf%d\tknows\n", i, i))); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			<-entered
		}
	}
	h, err := fleet.SyncCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	repaired := make(chan error, 1)
	go func() {
		_, err := st.RepairSnapshot(h.Reader, h.Generation, h.Fingerprint)
		repaired <- err
	}()
	release()
	if err := <-repaired; err != nil {
		t.Fatalf("repair during a background checkpoint: %v", err)
	}
	ckpts, wal := journalFiles(t, dir)
	if len(ckpts) != 1 || ckpts[0] != fmt.Sprintf("checkpoint-%016x.rexkb", want.Generation) || len(wal) != 1 {
		t.Fatalf("after the repair: checkpoints %v, WAL segments %v; want the repair's checkpoint and one empty segment", ckpts, wal)
	}
	if ds := st.DurabilityStats(); ds.WALSize != 0 || ds.CheckpointGen != want.Generation {
		t.Fatalf("after the repair: %+v, want an empty WAL and checkpoint %d", ds, want.Generation)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Generation() != want.Generation || st2.Current().Fingerprint != want.Fingerprint {
		t.Fatalf("restart after the repair: generation %d (%s), want the fleet's %d (%s)",
			st2.Generation(), st2.Current().Fingerprint, want.Generation, want.Fingerprint)
	}
}

// TestRecoverSingleFileJournal recovers a journal directory in the
// layout before WAL segments — one checkpoint and one wal.log, written
// by that code: durableOptions, five soakDeltas, a checkpoint at
// generation 4 and Close — and keeps it working: the next checkpoint
// seals wal.log as the first segment and collects it.
func TestRecoverSingleFileJournal(t *testing.T) {
	const nDeltas = 9
	deltas := make([]string, nDeltas)
	for i := range deltas {
		deltas[i] = soakDelta(i)
	}
	oracle := soakOracle(t, deltas)
	dir := t.TempDir()
	src := filepath.Join("testdata", "journal-wal-log")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if ds := st.DurabilityStats(); st.Generation() != 6 || st.Current().Fingerprint != oracle[6] || ds.Replayed != 2 {
		t.Fatalf("recovered generation %d (%s), %d replayed; want 6 (%s) from checkpoint 4 and 2 records",
			st.Generation(), st.Current().Fingerprint, ds.Replayed, oracle[6])
	}
	for g := 6; g < nDeltas+1; g++ {
		if _, err := st.Apply(strings.NewReader(deltas[g-1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if ckpts, wal := journalFiles(t, dir); len(ckpts) != 1 || len(wal) != 1 || wal[0] == "wal.log" {
		t.Fatalf("after a checkpoint on the recovered journal: checkpoints %v, WAL segments %v", ckpts, wal)
	}
	st2, err := NewStore(durableKB(t), durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Generation() != nDeltas+1 || st2.Current().Fingerprint != oracle[nDeltas+1] {
		t.Fatalf("restart: generation %d (%s), want %d (%s)", st2.Generation(), st2.Current().Fingerprint, nDeltas+1, oracle[nDeltas+1])
	}
}
