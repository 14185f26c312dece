// Package sync implements the client side of replica anti-entropy: a
// lagging store catches up to the fleet by streaming a peer's WAL tail
// — or, when it is behind the peer's checkpoint GC horizon, the full
// binary checkpoint — and converges to the fleet's generation and
// fingerprint with zero operator action.
//
// The engine applies WAL records through the store's normal Apply path,
// so the local journal stays durable and crash-safe mid-sync: a crash
// between records recovers to the last applied generation and the next
// sync resumes from there. Snapshot transfers spool to a local file and
// resume with HTTP range requests after an interrupted transfer. While
// a sync runs, the store keeps serving its stale-but-honest snapshot;
// the serving layer can instead refuse queries with 503 if configured.
package sync

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"rex"
	"rex/internal/fail"
	"rex/internal/live"
)

// Config configures a sync engine. Peers and the store are required;
// everything else has serviceable defaults.
type Config struct {
	// Peers are the base URLs of the other replicas (e.g.
	// "http://127.0.0.1:8081"). The engine probes all of them and syncs
	// from the freshest healthy one.
	Peers []string
	// Client is the HTTP client used for probes and transfers; nil uses
	// a dedicated client (per-attempt timeouts come from AttemptTimeout,
	// not the client).
	Client *http.Client
	// AdminToken, when set, is sent as a bearer token on sync requests
	// (the peer's /admin/* endpoints are token-gated the same way).
	AdminToken string
	// Interval is the anti-entropy probe period of the background loop
	// (default 2s).
	Interval time.Duration
	// Attempts bounds the retry loop of one Sync call (default 5).
	Attempts int
	// RetryBase and RetryMax bound the jittered exponential backoff
	// between attempts (defaults 100ms and 5s).
	RetryBase, RetryMax time.Duration
	// AttemptTimeout bounds each HTTP request (probe or transfer)
	// within an attempt (default 30s).
	AttemptTimeout time.Duration
	// SpoolDir is where snapshot downloads are spooled so an
	// interrupted transfer resumes (default os.TempDir()).
	SpoolDir string
	// Logf, when set, receives one line per sync outcome and per
	// recovered error (e.g. log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) normalized() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 5
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.SpoolDir == "" {
		c.SpoolDir = os.TempDir()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// ErrSyncInProgress reports that another Sync call is already running;
// one catch-up at a time is enough (and concurrent installs would
// race).
var ErrSyncInProgress = errors.New("sync: a sync is already in progress")

// errTorn marks a transfer cut mid-stream: progress up to the tear is
// kept and the attempt is retried.
var errTorn = errors.New("sync: transfer cut mid-stream")

// Stats snapshots the engine's cumulative counters.
type Stats struct {
	// Syncing reports a sync running right now.
	Syncing bool `json:"syncing"`
	// Attempts counts Sync calls started; Successes and Failures their
	// outcomes.
	Attempts  uint64 `json:"attempts"`
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	// WALRecords and WALBytes count tail records applied and their
	// payload bytes transferred.
	WALRecords uint64 `json:"wal_records"`
	WALBytes   uint64 `json:"wal_bytes"`
	// Snapshots counts full checkpoint transfers installed,
	// SnapshotBytes the bytes downloaded for them (resumed portions
	// only count once), Resumes the transfers continued from a partial
	// spool file.
	Snapshots     uint64 `json:"snapshots"`
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	Resumes       uint64 `json:"resumes"`
	// Mismatches counts fingerprint verification failures: a transferred
	// snapshot that hashed wrong, a WAL record that did not reproduce
	// the peer's generation step, or a same-generation fork against the
	// peer — the last two each trigger a snapshot (re)install that
	// discards the divergent local history.
	Mismatches uint64 `json:"fingerprint_mismatches"`
}

// Report describes one completed Sync call.
type Report struct {
	Peer          string        `json:"peer"`
	Before        uint64        `json:"generation_before"`
	After         uint64        `json:"generation_after"`
	Fingerprint   string        `json:"fingerprint"`
	WALRecords    int           `json:"wal_records"`
	WALBytes      int64         `json:"wal_bytes"`
	FullSnapshot  bool          `json:"full_snapshot"`
	SnapshotBytes int64         `json:"snapshot_bytes,omitempty"`
	Resumed       bool          `json:"resumed"`
	Attempts      int           `json:"attempts"`
	Elapsed       time.Duration `json:"-"`
	ElapsedMS     float64       `json:"elapsed_ms"`
}

// Engine drives one store's catch-up. All methods are safe for
// concurrent use; at most one Sync runs at a time.
type Engine struct {
	store *rex.Store
	cfg   Config

	syncing atomic.Bool
	stopC   chan struct{}
	doneC   chan struct{}
	started atomic.Bool
	stopped atomic.Bool // CAS gate so concurrent Stops close stopC once

	attempts   atomic.Uint64
	successes  atomic.Uint64
	failures   atomic.Uint64
	walRecords atomic.Uint64
	walBytes   atomic.Uint64
	snapshots  atomic.Uint64
	snapBytes  atomic.Uint64
	resumes    atomic.Uint64
	mismatches atomic.Uint64

	// spoolETag remembers the fingerprint of the partially spooled
	// snapshot so a resumed range request can prove it continues the
	// same content (If-Range).
	spoolETag atomic.Pointer[string]
}

// New builds an engine catching up store from cfg.Peers.
func New(store *rex.Store, cfg Config) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("sync: nil store")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("sync: no peers configured")
	}
	return &Engine{
		store: store,
		cfg:   cfg.normalized(),
		stopC: make(chan struct{}),
		doneC: make(chan struct{}),
	}, nil
}

// Syncing reports whether a sync is running right now.
func (e *Engine) Syncing() bool { return e.syncing.Load() }

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Syncing:       e.syncing.Load(),
		Attempts:      e.attempts.Load(),
		Successes:     e.successes.Load(),
		Failures:      e.failures.Load(),
		WALRecords:    e.walRecords.Load(),
		WALBytes:      e.walBytes.Load(),
		Snapshots:     e.snapshots.Load(),
		SnapshotBytes: e.snapBytes.Load(),
		Resumes:       e.resumes.Load(),
		Mismatches:    e.mismatches.Load(),
	}
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// peerState is what a probe learns about one peer.
type peerState struct {
	url         string
	generation  uint64
	fingerprint string
	draining    bool
}

// probe asks one peer's /healthz for its generation and fingerprint. A
// draining peer answers 503 with the same body and is still a valid
// sync source (its store keeps serving reads until exit).
func (e *Engine) probe(ctx context.Context, peer string) (peerState, error) {
	if err := fail.Hit("sync.probe"); err != nil {
		return peerState{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, e.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return peerState{}, err
	}
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return peerState{}, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	var body struct {
		Status      string `json:"status"`
		Draining    bool   `json:"draining"`
		Generation  uint64 `json:"generation"`
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err != nil {
		return peerState{}, fmt.Errorf("sync: probe %s: %w", peer, err)
	}
	if body.Generation == 0 {
		return peerState{}, fmt.Errorf("sync: probe %s: no generation in health response", peer)
	}
	return peerState{
		url:         peer,
		generation:  body.Generation,
		fingerprint: body.Fingerprint,
		draining:    body.Draining,
	}, nil
}

// pickPeer probes every configured peer and returns the freshest
// reachable one; among equals a non-draining peer wins (a draining one
// may exit mid-transfer).
func (e *Engine) pickPeer(ctx context.Context) (peerState, error) {
	var best peerState
	var firstErr error
	for _, p := range e.cfg.Peers {
		st, err := e.probe(ctx, p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		better := best.url == "" || st.generation > best.generation ||
			(st.generation == best.generation && best.draining && !st.draining)
		if better {
			best = st
		}
	}
	if best.url == "" {
		if firstErr == nil {
			firstErr = fmt.Errorf("no peers configured")
		}
		return peerState{}, fmt.Errorf("sync: no reachable peer: %w", firstErr)
	}
	return best, nil
}

// Behind probes the peers and reports whether any reachable peer is
// ahead of the local store (the background loop's trigger).
func (e *Engine) Behind(ctx context.Context) bool {
	st, err := e.pickPeer(ctx)
	return err == nil && st.generation > e.store.Generation()
}

// Sync catches the local store up to the fleet. With peerURL empty the
// freshest healthy peer is chosen; otherwise that peer is used (the
// router passes its own freshest view). Progress is kept across
// retries and across calls: applied WAL records are durable in the
// local journal, and an interrupted snapshot download resumes from its
// spool file. Only one Sync runs at a time; concurrent calls return
// ErrSyncInProgress.
func (e *Engine) Sync(ctx context.Context, peerURL string) (*Report, error) {
	if !e.syncing.CompareAndSwap(false, true) {
		return nil, ErrSyncInProgress
	}
	defer e.syncing.Store(false)
	e.attempts.Add(1)
	t0 := time.Now()
	rep := &Report{Before: e.store.Generation()}
	var lastErr error
	for attempt := 1; attempt <= e.cfg.Attempts; attempt++ {
		rep.Attempts = attempt
		if attempt > 1 {
			if err := sleepCtx(ctx, e.backoff(attempt-1)); err != nil {
				break
			}
		}
		err := e.syncOnce(ctx, peerURL, rep)
		if err == nil {
			rep.After = e.store.Generation()
			rep.Elapsed = time.Since(t0)
			rep.ElapsedMS = float64(rep.Elapsed) / float64(time.Millisecond)
			rep.Fingerprint = e.store.Current().Fingerprint
			e.successes.Add(1)
			e.logf("sync: caught up from %s: generation %d -> %d (%d wal records, snapshot=%v resumed=%v) in %s",
				rep.Peer, rep.Before, rep.After, rep.WALRecords, rep.FullSnapshot, rep.Resumed, rep.Elapsed.Round(time.Millisecond))
			return rep, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		e.logf("sync: attempt %d/%d from %q failed: %v", attempt, e.cfg.Attempts, peerURL, err)
	}
	e.failures.Add(1)
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return rep, fmt.Errorf("sync: gave up after %d attempts: %w", rep.Attempts, lastErr)
}

// backoff returns the jittered exponential delay before retry n (1+).
func (e *Engine) backoff(n int) time.Duration {
	d := e.cfg.RetryBase << (n - 1)
	if d > e.cfg.RetryMax || d <= 0 {
		d = e.cfg.RetryMax
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2+1)) //nolint:gosec // jitter, not crypto
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// syncOnce runs one catch-up round: probe, then stream WAL tail (or
// full snapshot when below the peer's horizon) until the local store
// reaches the peer's generation, then verify fingerprints.
func (e *Engine) syncOnce(ctx context.Context, peerURL string, rep *Report) error {
	var peer peerState
	var err error
	if peerURL != "" {
		peer, err = e.probe(ctx, peerURL)
	} else {
		peer, err = e.pickPeer(ctx)
	}
	if err != nil {
		return err
	}
	rep.Peer = peer.url
	forceSnapshot := false
	// repair marks a proven fork (same generation, different content):
	// the snapshot fetch then installs the peer's checkpoint even at or
	// below the local generation, discarding the divergent history.
	repair := false
	// Bounded rounds: a fast writer can keep advancing the target, but
	// each round makes generation progress, so a small bound only cuts
	// off a peer that outruns us indefinitely (the next Sync continues).
	for round := 0; round < 64; round++ {
		local := e.store.Generation()
		if local > peer.generation {
			return nil // ahead of the chosen peer; nothing to pull
		}
		if local == peer.generation && !repair {
			if fp := e.store.Current().Fingerprint; fp != peer.fingerprint {
				// Same generation, different content: the histories forked.
				// No WAL replay can reconcile that — the only way back is
				// to discard the divergent local history and adopt the
				// peer's checkpoint wholesale, even though its generation
				// is at or below ours. The routing tier's floor keeps this
				// replica out of rotation until it re-converges.
				e.mismatches.Add(1)
				e.logf("sync: fingerprint mismatch with %s at generation %d (local %s, peer %s); repairing from snapshot",
					peer.url, local, fp, peer.fingerprint)
				repair = true
			} else {
				return nil
			}
		}
		if repair || forceSnapshot {
			if err := e.fetchSnapshot(ctx, peer, rep, repair); err != nil {
				return err
			}
			repair = false
			forceSnapshot = false
		} else {
			err := e.applyTail(ctx, peer, local, rep)
			switch {
			case errors.Is(err, rex.ErrBelowWALHorizon):
				forceSnapshot = true
			case errors.Is(err, errDiverged):
				// Applying the peer's record did not reproduce the peer's
				// generation step: local content drifted. Start over from
				// the peer's checkpoint.
				e.mismatches.Add(1)
				forceSnapshot = true
			case err != nil:
				return err
			}
		}
		// Refresh the target: the peer may have advanced while we
		// caught up, and the final same-generation fingerprint check
		// needs its current answer.
		if peer, err = e.probe(ctx, peer.url); err != nil {
			return err
		}
	}
	return fmt.Errorf("sync: peer %s kept advancing; no convergence after 64 rounds", peer.url)
}

// errDiverged reports that a WAL record applied locally did not advance
// the store to the record's generation — local history drifted from the
// peer's and a full snapshot is needed.
var errDiverged = errors.New("sync: local state diverged from peer history")

func (e *Engine) authorize(req *http.Request) {
	if e.cfg.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+e.cfg.AdminToken)
	}
}

// applyTail streams the peer's WAL records above from and applies each
// through the store's normal Apply path (durable locally before
// acknowledged). A stream cut mid-record keeps all fully applied
// records — the caller retries from the new local generation.
func (e *Engine) applyTail(ctx context.Context, peer peerState, from uint64, rep *Report) error {
	if err := fail.Hit("sync.tail.request"); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, e.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer.url+"/admin/wal?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return err
	}
	e.authorize(req)
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck // drain for reuse
		return rex.ErrBelowWALHorizon
	default:
		return fmt.Errorf("sync: %s/admin/wal: status %d", peer.url, resp.StatusCode)
	}
	sc := live.NewFrameScanner(resp.Body)
	applied := 0
	for {
		gen, payload, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Torn mid-stream (peer died, connection cut): keep the
			// records already applied; only report failure if no progress
			// was possible at all, otherwise let the caller re-request
			// from the new position.
			if applied > 0 {
				return nil
			}
			return errTorn
		}
		local := e.store.Generation()
		if gen <= local {
			continue // already have it (e.g. a broadcast landed mid-sync)
		}
		if gen != local+1 {
			return fmt.Errorf("sync: wal tail gap: have generation %d, next record is %d", local, gen)
		}
		if err := fail.Hit("sync.tail.apply"); err != nil {
			return err
		}
		// ApplyAt makes the apply conditional on the expected generation
		// inside the store's writer lock: if a delta broadcast commits
		// between the check above and the apply, the store refuses
		// without mutating instead of double-applying the record.
		info, err := e.store.ApplyAt(bytes.NewReader(payload), gen)
		if errors.Is(err, rex.ErrGenerationConflict) {
			if gen <= e.store.Generation() {
				continue // the concurrent writer WAS this record's broadcast
			}
			return fmt.Errorf("sync: wal tail gap after concurrent apply: next record is %d, store is at %d",
				gen, e.store.Generation())
		}
		if err != nil {
			return fmt.Errorf("sync: applying wal record %d: %w", gen, err)
		}
		if info.Generation != gen {
			return fmt.Errorf("%w: record %d applied as generation %d", errDiverged, gen, info.Generation)
		}
		applied++
		rep.WALRecords++
		rep.WALBytes += int64(len(payload))
		e.walRecords.Add(1)
		e.walBytes.Add(uint64(len(payload)))
	}
}

// spoolPath is where a snapshot download accumulates; derived from the
// peer so two sources never interleave into one file.
func (e *Engine) spoolPath(peer string) string {
	sum := uint64(1469598103934665603)
	for i := 0; i < len(peer); i++ {
		sum = (sum ^ uint64(peer[i])) * 1099511628211
	}
	return filepath.Join(e.cfg.SpoolDir, fmt.Sprintf("rex-sync-%016x.partial", sum))
}

// fetchSnapshot downloads the peer's newest checkpoint — resuming a
// partial spool file by byte range when the peer still serves the same
// fingerprint — verifies it, and installs it at the peer's checkpoint
// generation. With repair set the install goes through the store's
// divergence-repair path: the checkpoint is adopted even at or below
// the local generation, discarding forked local history.
func (e *Engine) fetchSnapshot(ctx context.Context, peer peerState, rep *Report, repair bool) error {
	if err := fail.Hit("sync.snapshot.request"); err != nil {
		return err
	}
	spool := e.spoolPath(peer.url)
	f, err := os.OpenFile(spool, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("sync: spool: %w", err)
	}
	defer f.Close() //nolint:errcheck // closed explicitly on success
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("sync: spool: %w", err)
	}
	have := st.Size()
	rctx, cancel := context.WithTimeout(ctx, e.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, peer.url+"/admin/snapshot", nil)
	if err != nil {
		return err
	}
	e.authorize(req)
	etag := e.spoolETag.Load()
	if have > 0 && etag != nil {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", have))
		req.Header.Set("If-Range", *etag)
	}
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only body
	switch resp.StatusCode {
	case http.StatusOK:
		// Full body: anything spooled is stale (no range sent, the
		// fingerprint changed, or the peer ignored the range).
		if err := f.Truncate(0); err != nil {
			return fmt.Errorf("sync: spool truncate: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("sync: spool seek: %w", err)
		}
		have = 0
	case http.StatusPartialContent:
		if _, err := f.Seek(have, io.SeekStart); err != nil {
			return fmt.Errorf("sync: spool seek: %w", err)
		}
		rep.Resumed = true
		e.resumes.Add(1)
	default:
		return fmt.Errorf("sync: %s/admin/snapshot: status %d", peer.url, resp.StatusCode)
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Rex-Generation"), 10, 64)
	if err != nil || gen == 0 {
		return fmt.Errorf("sync: %s/admin/snapshot: missing generation header", peer.url)
	}
	fp := strings.Trim(resp.Header.Get("ETag"), `"`)
	if respETag := resp.Header.Get("ETag"); respETag != "" {
		e.spoolETag.Store(&respETag)
	}
	n, err := io.Copy(f, resp.Body)
	e.snapBytes.Add(uint64(n))
	rep.FullSnapshot = true
	if err != nil {
		// Cut mid-transfer: the spool keeps what arrived; the retry
		// resumes from there.
		return fmt.Errorf("%w: snapshot transfer after %d bytes: %v", errTorn, have+n, err)
	}
	if err := fail.Hit("sync.snapshot.install"); err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("sync: spool seek: %w", err)
	}
	install := e.store.InstallSnapshot
	if repair {
		install = e.store.RepairSnapshot
	}
	if _, err := install(f, gen, fp); err != nil {
		if !repair && errors.Is(err, rex.ErrGenerationConflict) {
			// The local store reached the peer's checkpoint while we
			// downloaded (e.g. a broadcast landed), and the install,
			// which checks under the writer's lock, refused: nothing to
			// install, the tail path takes over from here. A repair is
			// never refused this way: the local generation is forked, so
			// "already past it" proves nothing — the checkpoint must be
			// adopted to rebase onto the fleet's history.
			e.discardSpool(f, spool)
			return nil
		}
		if strings.Contains(err.Error(), "fingerprint") {
			// Corrupt or mixed-source spool: drop it so the retry starts
			// a clean transfer.
			e.mismatches.Add(1)
			e.discardSpool(f, spool)
		}
		return err
	}
	rep.SnapshotBytes = have + n
	e.snapshots.Add(1)
	e.discardSpool(f, spool)
	e.logf("sync: installed snapshot generation %d (%s, %d bytes) from %s", gen, fp, have+n, peer.url)
	return nil
}

// discardSpool closes and removes a spool file and forgets its etag.
func (e *Engine) discardSpool(f *os.File, path string) {
	f.Close()       //nolint:errcheck // read side already consumed
	os.Remove(path) //nolint:errcheck // best-effort cleanup
	e.spoolETag.Store(nil)
}

// Start launches the background anti-entropy loop: an immediate
// catch-up attempt (the boot-time rejoin), then a probe every Interval
// that syncs whenever a peer is ahead. Stop shuts it down.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(e.doneC)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-e.stopC
			cancel()
		}()
		e.syncIfBehind(ctx)
		tick := time.NewTicker(e.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				e.syncIfBehind(ctx)
			}
		}
	}()
}

func (e *Engine) syncIfBehind(ctx context.Context) {
	if ctx.Err() != nil || !e.Behind(ctx) {
		return
	}
	if _, err := e.Sync(ctx, ""); err != nil && !errors.Is(err, ErrSyncInProgress) && ctx.Err() == nil {
		e.logf("sync: background catch-up failed: %v", err)
	}
}

// Stop terminates the background loop and waits for it to exit. Safe
// to call without Start and more than once.
func (e *Engine) Stop() {
	if !e.started.Load() {
		return
	}
	// The CAS, not a select-with-default, makes concurrent Stops safe:
	// two racing selects can both observe the channel open and both
	// close it, panicking; exactly one CAS wins.
	if e.stopped.CompareAndSwap(false, true) {
		close(e.stopC)
	}
	<-e.doneC
}

// ValidatePeers parses and normalizes a comma-separated peer list
// ("http://host:port,..." or "name=http://host:port,...") into base
// URLs, for the -peers flag.
func ValidatePeers(s string) ([]string, error) {
	var peers []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i := strings.Index(part, "="); i >= 0 && !strings.Contains(part[:i], "/") {
			part = part[i+1:]
		}
		u, err := url.Parse(part)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("sync: bad peer %q (want http://host:port)", part)
		}
		peers = append(peers, strings.TrimRight(u.String(), "/"))
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("sync: empty peer list")
	}
	return peers, nil
}
