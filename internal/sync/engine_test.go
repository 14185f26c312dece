package sync_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rex"
	"rex/internal/fail"
	"rex/internal/serve"
	rexsync "rex/internal/sync"
)

// seedTSV is a tiny KB every test store starts from; both sides of a
// sync seeded from it share generation 1 and its fingerprint, so the
// only divergence in a test is the divergence the test creates.
const seedTSV = `node	a	person
node	b	person
node	c	person
label	knows	U
edge	a	b	knows
edge	a	c	knows
`

// newStore boots one store; ckptEvery > 0 makes it durable in a temp
// dir with that checkpoint cadence (1 = every delta empties the WAL,
// forcing full-snapshot catch-up; large = the whole history stays in
// the WAL tail).
func newStore(t *testing.T, ckptEvery int) *rex.Store {
	t.Helper()
	k, err := rex.ReadKB(strings.NewReader(seedTSV))
	if err != nil {
		t.Fatal(err)
	}
	opt := rex.Options{Measure: "size", TopK: 4, MaxPatternSize: 3, CacheSize: 16}
	if ckptEvery > 0 {
		opt.Durability = rex.DurabilityOptions{Dir: t.TempDir(), Fsync: "off", CheckpointEvery: ckptEvery}
	}
	store, err := rex.NewStore(k, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// bootPeer serves one store over a real listener so the engine's HTTP
// paths (conditional requests, ranges, aborts) are exercised for real.
func bootPeer(t *testing.T, store *rex.Store, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	srv := serve.New(store, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// advance applies n unique deltas, one generation each.
func advance(t *testing.T, store *rex.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		delta := fmt.Sprintf("label\tk%d\tU\nnode\tm%d\tperson\nedge\ta\tm%d\tk%d\n", i, i, i, i)
		if _, err := store.Apply(strings.NewReader(delta)); err != nil {
			t.Fatal(err)
		}
	}
}

func newEngine(t *testing.T, store *rex.Store, peers ...string) *rexsync.Engine {
	t.Helper()
	e, err := rexsync.New(store, rexsync.Config{
		Peers:          peers,
		Attempts:       5,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       25 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		Interval:       20 * time.Millisecond,
		SpoolDir:       t.TempDir(),
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// assertConverged requires both stores to hold the same generation and
// fingerprint — the convergence invariant every sync must establish.
func assertConverged(t *testing.T, local, peer *rex.Store) {
	t.Helper()
	ls, ps := local.Current(), peer.Current()
	if ls.Generation != ps.Generation || ls.Fingerprint != ps.Fingerprint {
		t.Fatalf("not converged: local gen %d (%s), peer gen %d (%s)",
			ls.Generation, ls.Fingerprint, ps.Generation, ps.Fingerprint)
	}
}

func TestSyncCatchesUpViaWALTail(t *testing.T) {
	peerStore := newStore(t, 1000) // checkpoint horizon stays at the seed
	advance(t, peerStore, 5)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 1000)

	e := newEngine(t, local, hs.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullSnapshot {
		t.Fatal("used a full snapshot where the WAL tail sufficed")
	}
	if rep.WALRecords != 5 {
		t.Fatalf("applied %d wal records, want 5", rep.WALRecords)
	}
	if rep.Before != 1 || rep.After != 6 {
		t.Fatalf("report generations %d -> %d, want 1 -> 6", rep.Before, rep.After)
	}
	assertConverged(t, local, peerStore)
}

// Satellite edge case: a replica below the peer's checkpoint horizon
// cannot replay the WAL (410 Gone) and must transfer the full snapshot.
func TestSyncBelowHorizonForcesFullSnapshot(t *testing.T) {
	peerStore := newStore(t, 1) // every delta checkpoints; the WAL is always empty
	advance(t, peerStore, 3)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 64)

	e := newEngine(t, local, hs.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullSnapshot {
		t.Fatal("expected a full snapshot transfer below the WAL horizon")
	}
	if st := e.Stats(); st.Snapshots != 1 {
		t.Fatalf("snapshots installed = %d, want 1", st.Snapshots)
	}
	assertConverged(t, local, peerStore)

	// The installed snapshot must be durable locally: reopen the journal
	// by asking the store, not the peer.
	if got := local.Generation(); got != peerStore.Generation() {
		t.Fatalf("local generation %d after install, want %d", got, peerStore.Generation())
	}
}

// Satellite edge case: the WAL stream tears inside its final record.
// The engine keeps every whole record and re-requests from the new
// position; convergence still happens in one Sync call.
func TestSyncTornWALStreamKeepsWholeRecords(t *testing.T) {
	t.Cleanup(fail.Reset)
	peerStore := newStore(t, 1000)
	advance(t, peerStore, 4)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 1000)

	fail.EnableTimes("serve.wal.cut", 1)
	e := newEngine(t, local, hs.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullSnapshot {
		t.Fatal("a torn tail must not force a snapshot; whole records were applied")
	}
	if rep.WALRecords != 4 {
		t.Fatalf("applied %d wal records across the tear, want 4", rep.WALRecords)
	}
	assertConverged(t, local, peerStore)
}

// Satellite edge case: the snapshot transfer is cut mid-body. The spool
// file keeps the delivered half and the retry resumes with a range
// request instead of restarting from byte zero.
func TestSyncSnapshotCutThenRangeResume(t *testing.T) {
	t.Cleanup(fail.Reset)
	peerStore := newStore(t, 1)
	advance(t, peerStore, 3)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 64)

	fail.EnableTimes("serve.snapshot.cut", 1)
	e := newEngine(t, local, hs.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullSnapshot || !rep.Resumed {
		t.Fatalf("full_snapshot=%v resumed=%v, want both true", rep.FullSnapshot, rep.Resumed)
	}
	if st := e.Stats(); st.Resumes != 1 {
		t.Fatalf("resumes = %d, want 1", st.Resumes)
	}
	assertConverged(t, local, peerStore)
}

// A write that reaches the peer's checkpoint generation while the
// snapshot downloads overtakes the install: the store refuses it with a
// generation conflict under its writer lock, and the engine takes that
// as "already past it" — it drops the spool and converges in the same
// attempt instead of failing it and backing off.
func TestSyncInstallOvertakenByLocalWrite(t *testing.T) {
	t.Cleanup(fail.Reset)
	peerStore := newStore(t, 1) // every delta checkpoints; the WAL is always empty
	advance(t, peerStore, 1)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 64)

	// Between the download and the install, the peer's delta lands
	// locally too, as a broadcast would.
	fail.EnableFunc("sync.snapshot.install", func() error {
		if local.Generation() == 1 {
			advance(t, local, 1)
		}
		return nil
	})
	e := newEngine(t, local, hs.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || !rep.FullSnapshot {
		t.Fatalf("attempts = %d, full_snapshot = %v; want 1 attempt that fetched the snapshot", rep.Attempts, rep.FullSnapshot)
	}
	if st := e.Stats(); st.Snapshots != 0 {
		t.Fatalf("snapshots installed = %d, want 0: the local write got there first", st.Snapshots)
	}
	assertConverged(t, local, peerStore)
}

// Satellite edge case: the peer starts draining mid-catch-up. Its
// snapshot and WAL endpoints stay available through the drain, so the
// in-flight sync completes instead of restarting elsewhere.
func TestSyncCompletesAgainstDrainingPeer(t *testing.T) {
	peerStore := newStore(t, 1000)
	advance(t, peerStore, 3)
	srv, hs := bootPeer(t, peerStore, serve.Config{})
	srv.StartDraining()
	local := newStore(t, 1000)

	e := newEngine(t, local, hs.URL)
	if _, err := e.Sync(context.Background(), hs.URL); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, local, peerStore)
}

func TestSyncPicksFreshestPeer(t *testing.T) {
	behindStore := newStore(t, 1000)
	advance(t, behindStore, 1)
	_, behindHS := bootPeer(t, behindStore, serve.Config{})
	aheadStore := newStore(t, 1000)
	advance(t, aheadStore, 4)
	_, aheadHS := bootPeer(t, aheadStore, serve.Config{})
	local := newStore(t, 1000)

	e := newEngine(t, local, behindHS.URL, aheadHS.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peer != aheadHS.URL {
		t.Fatalf("synced from %s, want the fresher %s", rep.Peer, aheadHS.URL)
	}
	assertConverged(t, local, aheadStore)
}

func TestSyncHonorsAdminToken(t *testing.T) {
	peerStore := newStore(t, 1000)
	advance(t, peerStore, 2)
	_, hs := bootPeer(t, peerStore, serve.Config{AdminToken: "s3cret"})
	local := newStore(t, 1000)

	e, err := rexsync.New(local, rexsync.Config{
		Peers: []string{hs.URL}, AdminToken: "s3cret",
		Attempts: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		SpoolDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sync(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, local, peerStore)

	// The wrong token must fail, not silently skip.
	bad, err := rexsync.New(newStore(t, 1000), rexsync.Config{
		Peers: []string{hs.URL}, AdminToken: "wrong",
		Attempts: 1, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond,
		SpoolDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, peerStore, 1)
	if _, err := bad.Sync(context.Background(), ""); err == nil {
		t.Fatal("sync with a wrong admin token unexpectedly succeeded")
	}
}

// Forked histories at the same generation cannot be reconciled by any
// WAL replay; the engine must detect the fingerprint mismatch and
// repair by adopting the peer's snapshot wholesale — even though its
// generation is not above the local one — instead of leaving the fork
// in place to be served forever.
func TestSyncRepairsSameGenerationFork(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			ckptEvery := 0
			if durable {
				ckptEvery = 1000
			}
			peerStore := newStore(t, ckptEvery)
			if _, err := peerStore.Apply(strings.NewReader("node\tx\tperson\nedge\ta\tx\tknows\n")); err != nil {
				t.Fatal(err)
			}
			_, hs := bootPeer(t, peerStore, serve.Config{})
			local := newStore(t, ckptEvery)
			if _, err := local.Apply(strings.NewReader("node\ty\tperson\nedge\ta\ty\tknows\n")); err != nil {
				t.Fatal(err)
			}

			e := newEngine(t, local, hs.URL)
			rep, err := e.Sync(context.Background(), "")
			if err != nil {
				t.Fatalf("repair sync failed: %v", err)
			}
			if !rep.FullSnapshot {
				t.Fatal("a same-generation fork must be repaired by a full snapshot")
			}
			if st := e.Stats(); st.Mismatches == 0 {
				t.Fatal("mismatch not counted")
			}
			assertConverged(t, local, peerStore)
		})
	}
}

// The nastier fork shape from a cold restart: the forked replica's
// generation lines up with the peer's WAL numbering, so the tail
// replays "cleanly" onto the fork and only the final fingerprint check
// can expose it. The repair then rebases onto the peer's checkpoint —
// below the forked local generation — and replays the true history
// forward.
func TestSyncRepairsForkedWALHistory(t *testing.T) {
	peerStore := newStore(t, 1000) // whole history stays in the WAL
	if _, err := peerStore.Apply(strings.NewReader("node\tx\tperson\nedge\ta\tx\tknows\n")); err != nil {
		t.Fatal(err)
	}
	advance(t, peerStore, 3) // peer at generation 5
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 1000)
	if _, err := local.Apply(strings.NewReader("node\ty\tperson\nedge\ta\ty\tknows\n")); err != nil {
		t.Fatal(err) // forked at generation 2
	}

	e := newEngine(t, local, hs.URL)
	rep, err := e.Sync(context.Background(), "")
	if err != nil {
		t.Fatalf("repair sync failed: %v", err)
	}
	if !rep.FullSnapshot {
		t.Fatal("a forked WAL history must end in a snapshot repair")
	}
	if st := e.Stats(); st.Mismatches == 0 {
		t.Fatal("mismatch not counted")
	}
	assertConverged(t, local, peerStore)
	if got, want := local.Generation(), peerStore.Generation(); got != want {
		t.Fatalf("local generation %d after repair, want %d", got, want)
	}
}

// Stop is documented safe to call more than once — including
// concurrently (two shutdown paths racing must not double-close the
// stop channel and panic).
func TestEngineStopConcurrent(t *testing.T) {
	peerStore := newStore(t, 1000)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	e := newEngine(t, newStore(t, 1000), hs.URL)
	e.Start()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			e.Stop()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	e.Stop() // and once more after it is fully stopped
}

// The background loop is the zero-operator-action path: Start, fall
// behind, converge, no explicit Sync call.
func TestBackgroundLoopCatchesUp(t *testing.T) {
	peerStore := newStore(t, 1000)
	_, hs := bootPeer(t, peerStore, serve.Config{})
	local := newStore(t, 1000)

	e := newEngine(t, local, hs.URL)
	e.Start()
	defer e.Stop()

	advance(t, peerStore, 3)
	deadline := time.Now().Add(5 * time.Second)
	for local.Generation() != peerStore.Generation() {
		if time.Now().After(deadline) {
			t.Fatalf("background loop never converged: local %d, peer %d",
				local.Generation(), peerStore.Generation())
		}
		time.Sleep(10 * time.Millisecond)
	}
	assertConverged(t, local, peerStore)
}

func TestValidatePeers(t *testing.T) {
	got, err := rexsync.ValidatePeers("http://a:1, r2=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("parsed %v", got)
	}
	for _, bad := range []string{"", "a:1", "r2=", "http://"} {
		if _, err := rexsync.ValidatePeers(bad); err == nil {
			t.Fatalf("ValidatePeers(%q) unexpectedly succeeded", bad)
		}
	}
}
