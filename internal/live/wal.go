package live

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/fail"
	"rex/internal/kb"
)

// The journal makes a live store crash-safe. It owns one directory with
// two kinds of files:
//
//	checkpoint-<gen16x>.rexkb   a full binary snapshot of generation gen
//	wal-<gen16x>.log            a WAL segment, whose records start at gen
//
// plus wal.log, the first segment of a fresh directory (and the whole WAL
// of one written before segments), which sorts before every other. The
// last segment is the active one; the others are sealed.
//
// Every accepted delta batch is appended to the active segment — length+
// CRC framed, tagged with the generation it produces — and fsynced per
// policy *before* the manager publishes the new snapshot, so an
// acknowledged delta can never be lost to a crash. When the checkpoint
// policy triggers, the commit hook seals the active segment by creating
// the next one (one file create, nothing proportional to the graph) and
// hands the graph to the journal's checkpointer goroutine, which
// writes it to a temp file, fsyncs, atomically renames and fsyncs the
// directory, then deletes the segments sealed at or before its trigger
// and every other checkpoint. Recovery loads the newest valid checkpoint
// and replays the segments in order, skipping records at or below the
// checkpoint's generation and tolerating a torn final record (the crash
// window of an in-flight append).
//
// WAL record framing (EncodeFrame, FrameScanner), all integers
// big-endian:
//
//	gen(8) len(4) crc(4) payload(len)
//
// where crc is CRC-32 (IEEE) over the 12 gen+len bytes followed by the
// payload, and the payload is the delta's canonical wire encoding
// (Delta.AppendWire). A record is valid only if its header and payload
// read completely, the CRC matches, and its generation continues the
// replay sequence; the first invalid record ends recovery — everything
// after it is by construction unacknowledged tail garbage, and the
// segments are cut back to the validated prefix before new appends.

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged delta is on
	// stable storage before the swap publishes. The durable default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per FsyncInterval, bounding the
	// unsynced window: a crash loses at most the last interval's
	// acknowledged deltas (they remain all-or-nothing, never torn).
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache. Fastest; a crash
	// of the machine (not just the process) can lose recent deltas.
	FsyncNever
)

// String names the policy as the -fsync flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag values always, interval, off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off", "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("live: unknown fsync policy %q (want always, interval or off)", s)
}

// JournalOptions configures durability. The zero value syncs every
// append and checkpoints every DefaultCheckpointEvery deltas.
type JournalOptions struct {
	// Fsync selects the WAL flush policy.
	Fsync FsyncPolicy
	// FsyncInterval bounds the unsynced window under FsyncInterval
	// (default 100ms; ignored by the other policies).
	FsyncInterval time.Duration
	// CheckpointEvery checkpoints after this many WAL appends
	// (default DefaultCheckpointEvery; negative disables count-driven
	// checkpoints).
	CheckpointEvery int
	// CheckpointBytes checkpoints once the WAL exceeds this size
	// (default DefaultCheckpointBytes; negative disables).
	CheckpointBytes int64
}

// Default checkpoint policy: bound both replay work and WAL size.
const (
	DefaultCheckpointEvery = 64
	DefaultCheckpointBytes = int64(64) << 20
)

func (o JournalOptions) normalized() JournalOptions {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = DefaultCheckpointBytes
	}
	return o
}

// JournalStats reports the journal's cumulative counters and current
// sizes; all fields are safe to read concurrently with the write path.
type JournalStats struct {
	Appends       uint64 // WAL records written
	AppendedBytes uint64 // WAL bytes written (frames included)
	Fsyncs        uint64 // WAL fsync calls
	Checkpoints   uint64 // checkpoints written since open
	Replayed      int    // WAL records replayed by Recover
	TornTail      bool   // Recover dropped a torn/corrupt tail
	WALSize       int64  // bytes in the WAL segments still on disk
	CheckpointGen uint64 // newest on-disk checkpoint generation (0 = none)
}

// Journal is the durability sidecar of one live store. Append,
// Checkpoint and CheckpointAsync are called from the store's (already
// serialised) write path; Stats may be called from any goroutine.
type Journal struct {
	dir   string
	opt   JournalOptions
	owner *dirOwner

	mu          sync.Mutex
	wal         *os.File  // the active segment
	active      string    // its file name
	walSize     int64     // its acknowledged bytes
	frame       []byte    // Append's frame, reused
	sealed      []segment // sealed segments not yet collected, in order
	sealedBytes int64
	sealSeq     uint64 // seq of the newest sealed segment
	sinceCk     int    // appends since the last checkpoint trigger
	retry       bool   // the last checkpoint failed: the next append asks again
	broken      bool   // a failed append left an unrolled-back tail: refuse writes
	unsynced    bool   // appends the WAL fsync has not covered yet
	dirDirty    bool   // a seal's create awaits a directory fsync
	lastSync    time.Time

	// The checkpointer: one goroutine at most, started by the job that
	// finds none running and gone once the queue is empty; Close drains
	// the queue and waits for it. Jobs are numbered as they are queued;
	// finished is the newest that has run or been superseded, and ran
	// (on mu) signals each step.
	queue    []*ckptJob
	queued   uint64
	finished uint64
	ran      sync.Cond
	running  bool
	closing  bool
	worker   sync.WaitGroup

	appends   atomic.Uint64
	appBytes  atomic.Uint64
	fsyncs    atomic.Uint64
	ckpts     atomic.Uint64
	replayed  int
	tornTail  bool
	walSizeA  atomic.Int64
	ckptGen   atomic.Uint64
	ckptFP    atomic.Pointer[string] // fingerprint of the newest checkpoint
	closeOnce sync.Once
}

// segment is one sealed WAL file.
type segment struct {
	name string
	size int64
	seq  uint64 // seal order: a checkpoint collects every segment up to its trigger's
}

// segmentName names the segment whose records start at generation gen.
func segmentName(gen uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, gen, segSuffix) }

// ckptJob is one checkpoint handed to the checkpointer.
type ckptJob struct {
	g    *kb.Graph
	gen  uint64
	seq  uint64      // queue order
	upTo uint64      // seq of the last segment sealed by the trigger
	wait bool        // a caller blocks on done: never superseded
	done func(error) // receives the outcome, on the checkpointer goroutine
}

const (
	walName        = "wal.log"
	segPrefix      = "wal-"
	segSuffix      = ".log"
	ckptPrefix     = "checkpoint-"
	ckptSuffix     = ".rexkb"
	walFrameHeader = 16 // gen(8) + len(4) + crc(4)
	// maxWALRecord bounds one record's payload so a corrupt length field
	// cannot drive a huge allocation during recovery. Matches the
	// serving layer's delta body limit.
	maxWALRecord = 256 << 20
)

// journalDirs maps every journal directory opened in this process to
// the journal that opened it last. A directory has one writer: opening
// it again — a restart after a simulated crash, a store reopened without
// Close — takes it over, and a checkpoint does its file work under the
// owner's lock and only while its journal still owns the directory. A
// checkpoint left running by a journal its owner abandoned therefore
// finishes before the new journal lists the directory, or never starts,
// and cannot delete the files the new one recovers from.
var journalDirs = struct {
	sync.Mutex
	m map[string]*dirOwner
}{m: make(map[string]*dirOwner)}

type dirOwner struct {
	sync.Mutex // held across a checkpoint's file work and across a takeover
	j          *Journal
}

// claimDir makes j the owner of dir, waiting out any checkpoint the
// previous owner has mid-write.
func claimDir(dir string, j *Journal) *dirOwner {
	key, err := filepath.Abs(dir)
	if err != nil {
		key = filepath.Clean(dir)
	}
	journalDirs.Lock()
	o := journalDirs.m[key]
	if o == nil {
		o = &dirOwner{}
		journalDirs.m[key] = o
	}
	journalDirs.Unlock()
	o.Lock()
	o.j = j
	o.Unlock()
	return o
}

// OpenJournal opens (creating if needed) the journal directory. Stale
// temp files from an interrupted checkpoint are removed; the WAL is
// opened for appending but not yet validated — call Recover before the
// first Append.
func OpenJournal(dir string, opt JournalOptions) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("live: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("live: journal dir: %w", err)
	}
	j := &Journal{dir: dir, opt: opt.normalized(), lastSync: time.Now()}
	j.ran.L = &j.mu
	j.owner = claimDir(dir, j)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("live: journal dir: %w", err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name())) //nolint:errcheck // best-effort cleanup
		}
	}
	if gens := j.checkpointGens(); len(gens) > 0 {
		j.ckptGen.Store(gens[len(gens)-1])
	}
	segs, err := j.segmentsOnDisk()
	if err != nil {
		return nil, err
	}
	j.active = walName
	if n := len(segs); n > 0 {
		j.active, j.walSize = segs[n-1].name, segs[n-1].size
		for _, s := range segs[:n-1] {
			j.sealSeq++
			s.seq = j.sealSeq
			j.sealed = append(j.sealed, s)
			j.sealedBytes += s.size
		}
	}
	f, err := os.OpenFile(j.path(j.active), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("live: wal: %w", err)
	}
	j.wal = f
	return j, nil
}

func (j *Journal) path(name string) string { return filepath.Join(j.dir, name) }

func (j *Journal) ckptPath(gen uint64) string {
	return filepath.Join(j.dir, fmt.Sprintf("%s%016x%s", ckptPrefix, gen, ckptSuffix))
}

// genOf parses the generation out of a file name prefix<gen16x>suffix.
func genOf(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	gen, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
	return gen, err == nil
}

// checkpointGens lists the on-disk checkpoint generations, ascending.
func (j *Journal) checkpointGens() []uint64 {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range ents {
		if gen, ok := genOf(e.Name(), ckptPrefix, ckptSuffix); ok {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens
}

// segmentsOnDisk lists the WAL segments in the directory in replay
// order: wal.log, then by starting generation.
func (j *Journal) segmentsOnDisk() ([]segment, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("live: journal dir: %w", err)
	}
	var segs []segment
	for _, e := range ents {
		if _, ok := genOf(e.Name(), segPrefix, segSuffix); !ok && e.Name() != walName {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("live: wal segment: %w", err)
		}
		segs = append(segs, segment{name: e.Name(), size: info.Size()})
	}
	sort.Slice(segs, func(a, b int) bool { return segmentStart(segs[a].name) < segmentStart(segs[b].name) })
	return segs, nil
}

// segmentStart is the generation a segment's name says its records start
// at: 0 for wal.log, which precedes every other segment.
func segmentStart(name string) uint64 {
	start, _ := genOf(name, segPrefix, segSuffix)
	return start
}

// HasState reports whether the journal holds anything to recover from
// (at least one checkpoint file). A journal without state is fresh: the
// caller seeds it with Checkpoint of its initial graph.
func (j *Journal) HasState() bool { return j.ckptGen.Load() != 0 }

// Recover loads the newest valid checkpoint and replays the WAL
// segments onto it, returning the recovered graph and its generation.
// Corrupt checkpoints fall back to the next older one; a torn or corrupt
// final WAL record (the crash window of an in-flight append) ends replay
// and is cut away together with everything after it, and leftover
// records at or below the checkpoint generation (the crash window of an
// interrupted checkpoint GC) are skipped. After Recover the journal is
// positioned for appends.
//
// A fresh journal (no checkpoint) returns a nil graph and generation 0;
// a WAL without any checkpoint to base it on is an error.
func (j *Journal) Recover() (*kb.Graph, uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var g *kb.Graph
	var gen uint64
	gens := j.checkpointGens()
	for i := len(gens) - 1; i >= 0; i-- {
		loaded, err := kb.LoadBinary(j.ckptPath(gens[i]))
		if err != nil {
			// A corrupt checkpoint (torn write that still got renamed, disk
			// damage) falls back to the predecessor; the WAL bridges the
			// generation gap only from the generation we actually load, so
			// older records must still be present — GC removes them only
			// after the newer checkpoint is durable.
			continue
		}
		g, gen = loaded, gens[i]
		fp := loaded.Fingerprint()
		j.ckptFP.Store(&fp)
		break
	}
	j.ckptGen.Store(gen)
	size, err := j.wal.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, fmt.Errorf("live: wal seek: %w", err)
	}
	segs := append(j.sealed[:len(j.sealed):len(j.sealed)], segment{name: j.active, size: size})
	if g == nil {
		if len(gens) > 0 {
			return nil, 0, fmt.Errorf("live: no readable checkpoint among %d candidates in %s", len(gens), j.dir)
		}
		if total := j.sealedBytes + size; total > 0 {
			return nil, 0, fmt.Errorf("live: wal has %d bytes but no checkpoint to replay onto", total)
		}
		return nil, 0, nil
	}
	r := replayer{g: g, gen: gen}
	torn := false
	for i := range segs {
		end, stopped, err := r.segment(j.path(segs[i].name))
		if err != nil {
			return nil, 0, err
		}
		segs[i].size = end
		if !stopped {
			continue
		}
		// Cut the WAL here: this segment keeps its valid prefix and takes
		// the appends, and every later one is unreachable.
		torn = true
		for _, later := range segs[i+1:] {
			if err := os.Remove(j.path(later.name)); err != nil {
				return nil, 0, fmt.Errorf("live: wal segment: %w", err)
			}
		}
		if err := os.Truncate(j.path(segs[i].name), end); err != nil {
			return nil, 0, fmt.Errorf("live: wal truncate: %w", err)
		}
		if segs[i].name != j.active {
			f, err := os.OpenFile(j.path(segs[i].name), os.O_RDWR, 0)
			if err != nil {
				return nil, 0, fmt.Errorf("live: wal: %w", err)
			}
			j.wal.Close() //nolint:errcheck // its file is gone
			j.wal, j.active = f, segs[i].name
		}
		segs = segs[:i+1]
		break
	}
	last := len(segs) - 1
	j.sealed, j.sealedBytes = segs[:last], 0
	for _, s := range j.sealed {
		j.sealedBytes += s.size
	}
	j.walSize = segs[last].size
	if _, err := j.wal.Seek(j.walSize, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("live: wal seek: %w", err)
	}
	j.publishSizeLocked()
	j.replayed, j.tornTail = r.replayed, torn
	g, gen = r.g, r.gen
	// Replay rebuilt the tail as stacked overlays; fold them so the
	// recovered store starts from fresh CSR arrays like a clean boot.
	if r.replayed > 0 && g.Overlay().Depth > 0 {
		g = g.Compact()
	}
	return g, gen, nil
}

// replayer applies WAL records above its generation, in order.
type replayer struct {
	g        *kb.Graph
	gen      uint64
	replayed int
}

// segment replays one segment file. It returns the end of the file's
// valid prefix and whether replay stopped early at a torn, corrupt or
// out-of-sequence record.
func (r *replayer) segment(path string) (end int64, stopped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("live: wal segment: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only descriptor
	sc := NewFrameScanner(bufio.NewReaderSize(f, 64<<10))
	for {
		recGen, payload, err := sc.Next()
		if err == io.EOF {
			return end, false, nil
		}
		if err != nil {
			return end, true, nil // torn or corrupt record
		}
		if recGen > r.gen {
			if recGen != r.gen+1 {
				// A generation gap can only follow a record the rollback
				// path failed to truncate; everything from here on is
				// unreachable tail garbage.
				return end, true, nil
			}
			d, err := ParseDelta(bytes.NewReader(payload))
			if err != nil {
				return end, true, nil
			}
			next, _, _, err := d.Apply(r.g)
			if err != nil {
				// The record was acknowledged against exactly this graph
				// state once, so replay cannot legitimately fail: surface it
				// rather than silently dropping acknowledged writes.
				return 0, false, fmt.Errorf("live: wal replay of generation %d: %w", recGen, err)
			}
			r.g, r.gen = next, recGen
			r.replayed++
		} // else: a pre-checkpoint leftover of an interrupted GC
		end += walFrameHeader + int64(len(payload))
	}
}

// publishSizeLocked refreshes the WALSize the stats report.
func (j *Journal) publishSizeLocked() { j.walSizeA.Store(j.sealedBytes + j.walSize) }

// Append writes one delta batch producing generation gen to the WAL and
// flushes it per the fsync policy. It must be called before the
// generation is published — the caller acknowledges the delta only
// after both Append and the publish succeed. On error nothing is
// acknowledged: a partially written frame is truncated away so the next
// append starts from a clean tail, and if even that fails the journal
// refuses further writes (the process must restart and recover).
func (j *Journal) Append(gen uint64, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return fmt.Errorf("live: append to closed journal")
	}
	if j.broken {
		return fmt.Errorf("live: wal is broken by an earlier failed append; restart to recover")
	}
	if err := fail.Hit("wal.append"); err != nil {
		return err
	}
	if cap(j.frame) > 1<<20 {
		j.frame = nil // one outsized delta does not pin its frame
	}
	j.frame = EncodeFrame(j.frame[:0], gen, payload)
	written := j.frame
	var werr error
	if err := fail.Hit("wal.append.torn"); err != nil {
		// Simulated crash mid-write: flush half the frame and stop cold,
		// leaving the torn tail on disk exactly as a real crash would.
		written = written[:len(written)/2]
		werr = err
	}
	n, err := j.wal.Write(written)
	if werr == nil {
		werr = err
	} else {
		// The simulated crash also skips the rollback below — a crashed
		// process cannot clean up after itself.
		j.broken = true
		return werr
	}
	j.unsynced = true
	if werr == nil {
		werr = fail.Hit("wal.sync.error")
	}
	if werr == nil && j.shouldSyncLocked() {
		if err := j.syncLocked(); err != nil {
			werr = err
		}
	}
	if werr != nil {
		// Roll the tail back so the journal stays appendable: an unsynced
		// or half-written frame must not sit in front of future records.
		if err := j.wal.Truncate(j.walSize); err != nil {
			j.broken = true
			return fmt.Errorf("live: wal append failed (%v) and rollback failed (%v); restart to recover", werr, err)
		}
		if _, err := j.wal.Seek(j.walSize, io.SeekStart); err != nil {
			j.broken = true
			return fmt.Errorf("live: wal append failed (%v) and rollback seek failed (%v); restart to recover", werr, err)
		}
		return werr
	}
	j.walSize += int64(n)
	j.publishSizeLocked()
	j.sinceCk++
	j.appends.Add(1)
	j.appBytes.Add(uint64(n))
	return nil
}

// shouldSyncLocked applies the fsync policy to this append.
func (j *Journal) shouldSyncLocked() bool {
	switch j.opt.Fsync {
	case FsyncAlways:
		return true
	case FsyncInterval:
		return time.Since(j.lastSync) >= j.opt.FsyncInterval
	}
	return false
}

func (j *Journal) syncLocked() error {
	if err := fail.Hit("wal.sync"); err != nil {
		return err
	}
	if err := j.wal.Sync(); err != nil {
		return err
	}
	if j.dirDirty {
		// The segment the last seal created must be on disk before a
		// record in it is acknowledged.
		syncDir(j.dir)
		j.dirDirty = false
	}
	j.fsyncs.Add(1)
	j.unsynced = false
	j.lastSync = time.Now()
	return nil
}

// ShouldCheckpoint reports whether the checkpoint policy asks for one
// (appends since the last checkpoint trigger, or the active segment's
// size), or the last checkpoint failed and the next swap should retry.
func (j *Journal) ShouldCheckpoint() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.retry || (j.opt.CheckpointEvery > 0 && j.sinceCk >= j.opt.CheckpointEvery) ||
		(j.opt.CheckpointBytes > 0 && j.walSize >= j.opt.CheckpointBytes)
}

// Checkpoint writes g (generation gen) as a durable snapshot and returns
// once it is on disk and the files it makes redundant are gone: the job
// CheckpointAsync starts, enqueued and awaited, behind any checkpoint
// already running. The snapshot goes to a temp file, is fsynced,
// atomically renamed and the directory fsynced; then every other
// checkpoint and every WAL segment sealed up to this call are deleted —
// a checkpoint at the current generation leaves an empty WAL. A crash at
// any point leaves a recoverable directory: before the rename the old
// checkpoint and all segments still recover, after it the new
// checkpoint shadows the stale records (replay skips records at or below
// the checkpoint generation).
func (j *Journal) Checkpoint(g *kb.Graph, gen uint64) error {
	res := make(chan error, 1)
	if err := j.enqueue(&ckptJob{g: g, gen: gen, wait: true, done: func(err error) { res <- err }}); err != nil {
		return err
	}
	return <-res
}

// CheckpointAsync checkpoints g (generation gen) off the caller's path:
// it seals the active WAL segment — one file create — and hands g to
// the checkpointer, which does what Checkpoint
// does. At most one checkpoint runs at a time; one still waiting when
// another is started is superseded, never run. failed receives the
// error of a checkpoint that fails, on the checkpointer goroutine (on
// the caller's when the seal fails); the next ShouldCheckpoint then asks
// for another.
func (j *Journal) CheckpointAsync(g *kb.Graph, gen uint64, failed func(error)) {
	job := &ckptJob{g: g, gen: gen, done: func(err error) {
		if err != nil {
			failed(err)
		}
	}}
	if err := j.enqueue(job); err != nil {
		failed(err)
	}
}

// enqueue seals the active segment for job and queues it, starting the
// checkpointer if none is running.
func (j *Journal) enqueue(job *ckptJob) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil || j.closing {
		return fmt.Errorf("live: checkpoint on closed journal")
	}
	if err := j.sealLocked(job.gen + 1); err != nil {
		return err
	}
	j.queued++
	job.seq, job.upTo = j.queued, j.sealSeq
	j.sinceCk, j.retry = 0, false
	// A newer checkpoint collects every segment an older one waiting in
	// the queue would: drop those nobody waits for.
	kept := j.queue[:0]
	for _, q := range j.queue {
		if q.wait {
			kept = append(kept, q)
		}
	}
	clear(j.queue[len(kept):])
	j.queue = append(kept, job)
	if !j.running {
		j.running = true
		j.worker.Add(1)
		go j.checkpointer()
	}
	return nil
}

// sealLocked seals the active segment by creating the next one, for
// the records from generation next on: one create, no rename. The
// directory fsync that makes the new file durable is left to the next
// WAL sync, which runs before any record in it is acknowledged. Under
// FsyncInterval a segment holding unsynced appends is synced first,
// since later syncs reach only the active segment.
func (j *Journal) sealLocked(next uint64) error {
	if j.broken {
		return fmt.Errorf("live: wal is broken by an earlier failed append; restart to recover")
	}
	if j.walSize == 0 {
		return nil
	}
	if j.opt.Fsync == FsyncInterval && j.unsynced {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	// Names follow creation order even where generations do not: after a
	// repair moved the generation back, segments of the abandoned history
	// stay until the repair's checkpoint collects them.
	name := segmentName(max(next, segmentStart(j.active)+1))
	f, err := os.OpenFile(j.path(name), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("live: open wal segment: %w", err)
	}
	j.wal.Close() //nolint:errcheck // synced per policy; appends move on
	j.sealSeq++
	j.sealed = append(j.sealed, segment{name: j.active, size: j.walSize, seq: j.sealSeq})
	j.sealedBytes += j.walSize
	j.wal, j.active, j.walSize = f, name, 0
	j.dirDirty = j.opt.Fsync != FsyncNever
	return nil
}

// checkpointer runs queued checkpoints one at a time until the queue is
// empty.
func (j *Journal) checkpointer() {
	defer j.worker.Done()
	for {
		j.mu.Lock()
		if len(j.queue) == 0 {
			j.running = false
			j.mu.Unlock()
			return
		}
		job := j.queue[0]
		j.queue[0] = nil
		j.queue = j.queue[1:]
		j.mu.Unlock()
		err := j.writeCheckpoint(job)
		job.done(err)
		j.mu.Lock()
		j.retry = j.retry || err != nil
		j.finished = job.seq
		j.ran.Broadcast()
		j.mu.Unlock()
	}
}

// writeCheckpoint is the checkpointer's file work for one job; see
// Checkpoint.
func (j *Journal) writeCheckpoint(job *ckptJob) error {
	j.owner.Lock()
	defer j.owner.Unlock()
	if j.owner.j != j {
		return fmt.Errorf("live: checkpoint of generation %d dropped: %s was reopened by another journal", job.gen, j.dir)
	}
	final := j.ckptPath(job.gen)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("live: checkpoint: %w", err)
	}
	werr := fail.Hit("checkpoint.write")
	if werr != nil {
		// Simulated crash mid-checkpoint: leave a partial temp file.
		f.Write([]byte(binaryPartialStub)) //nolint:errcheck // injected-crash path
		f.Close()                          //nolint:errcheck
		return werr
	}
	if err := job.g.WriteBinary(f); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return fmt.Errorf("live: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("live: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("live: checkpoint close: %w", err)
	}
	if err := fail.Hit("checkpoint.rename"); err != nil {
		return err // simulated crash: durable temp file, no rename
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("live: checkpoint rename: %w", err)
	}
	syncDir(j.dir)
	fp := job.g.Fingerprint()
	j.mu.Lock()
	j.ckptGen.Store(job.gen)
	j.ckptFP.Store(&fp)
	j.mu.Unlock()
	j.ckpts.Add(1)
	if err := fail.Hit("checkpoint.gc"); err != nil {
		return err // simulated crash: new checkpoint durable, GC pending
	}
	// GC: the new checkpoint is durable, so every other checkpoint and
	// every segment sealed up to its trigger are now redundant. Removing
	// the segments first and the checkpoints *above* gen at all matters
	// for divergence repair: a forked replica installing the fleet's
	// (lower-numbered) checkpoint must leave neither its forked records
	// nor its forked higher checkpoint behind, or the next recovery would
	// resurrect the fork. A crash in here merely leaves extra files —
	// recovery would then pick the forked checkpoint, but the sync engine
	// re-detects the fingerprint mismatch and repairs again.
	j.mu.Lock()
	k := 0
	for k < len(j.sealed) && j.sealed[k].seq <= job.upTo {
		j.sealedBytes -= j.sealed[k].size
		k++
	}
	gone := j.sealed[:k:k]
	j.sealed = j.sealed[k:]
	j.publishSizeLocked()
	j.mu.Unlock()
	for _, s := range gone {
		os.Remove(j.path(s.name)) //nolint:errcheck // a leftover is skipped by replay and re-collected
	}
	for _, old := range j.checkpointGens() {
		if old != job.gen {
			os.Remove(j.ckptPath(old)) //nolint:errcheck // stale files are re-GCed next time
		}
	}
	return nil
}

// binaryPartialStub is what an injected checkpoint.write crash leaves in
// the temp file: a few bytes that are not a valid snapshot, so cleanup
// and corrupt-fallback paths are exercised.
const binaryPartialStub = "REXKB\x03partial"

// syncDir best-effort fsyncs a directory so a rename is durable. Errors
// are ignored: not every filesystem supports directory fsync, and the
// rename itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //nolint:errcheck // best-effort
	d.Close() //nolint:errcheck
}

// Sync forces a WAL flush regardless of policy (used on shutdown).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return nil
	}
	return j.syncLocked()
}

// Close lets the checkpointer finish every checkpoint already started,
// then flushes and closes the WAL. The journal is unusable afterwards.
func (j *Journal) Close() error {
	var err error
	j.closeOnce.Do(func() {
		j.mu.Lock()
		j.closing = true
		j.mu.Unlock()
		j.worker.Wait()
		j.owner.Lock()
		if j.owner.j == j {
			j.owner.j = nil
		}
		j.owner.Unlock()
		j.mu.Lock()
		defer j.mu.Unlock()
		serr := j.wal.Sync()
		if j.dirDirty {
			syncDir(j.dir)
		}
		cerr := j.wal.Close()
		j.wal = nil
		if serr != nil {
			err = serr
		} else {
			err = cerr
		}
	})
	return err
}

// Stats snapshots the journal counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	replayed, torn := j.replayed, j.tornTail
	j.mu.Unlock()
	return JournalStats{
		Appends:       j.appends.Load(),
		AppendedBytes: j.appBytes.Load(),
		Fsyncs:        j.fsyncs.Load(),
		Checkpoints:   j.ckpts.Load(),
		Replayed:      replayed,
		TornTail:      torn,
		WALSize:       j.walSizeA.Load(),
		CheckpointGen: j.ckptGen.Load(),
	}
}
