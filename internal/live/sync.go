package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Anti-entropy support: the journal doubles as the serving side of
// replica catch-up. A lagging peer fetches the newest checkpoint file
// (content-addressed by fingerprint, resumable by byte range) and the
// WAL tail above its own generation, framed exactly as on disk, and
// replays the records through its own write path. Everything here
// reads the same files the durability path writes — there is no
// second representation to drift.

// ErrBelowHorizon reports that a requested WAL position has been
// garbage-collected by a checkpoint: the journal only retains records
// above its newest checkpoint generation, so a peer that far behind
// must transfer the full checkpoint instead.
var ErrBelowHorizon = errors.New("live: requested generation below the checkpoint horizon")

// ErrTornFrame reports that a WAL frame stream ended mid-record or
// failed its CRC — the transfer was cut or corrupted and the remainder
// must be refetched.
var ErrTornFrame = errors.New("live: torn or corrupt WAL frame")

// EncodeFrame appends one WAL frame (gen, payload) to buf in the
// on-disk framing — gen(8) len(4) crc(4) payload — and returns the
// extended buffer.
func EncodeFrame(buf []byte, gen uint64, payload []byte) []byte {
	var header [walFrameHeader]byte
	binary.BigEndian.PutUint64(header[0:8], gen)
	binary.BigEndian.PutUint32(header[8:12], uint32(len(payload)))
	binary.BigEndian.PutUint32(header[12:16], frameCRC(header[0:12], payload))
	buf = append(buf, header[:]...)
	return append(buf, payload...)
}

// frameCRC is CRC-32 (IEEE) over a frame's gen and len bytes followed by
// its payload.
func frameCRC(genLen, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(genLen), crc32.IEEETable, payload)
}

// FrameScanner reads CRC-framed WAL records from a byte stream (a WAL
// segment or a streamed tail transfer). Next returns io.EOF at a clean
// frame boundary and ErrTornFrame when the stream ends mid-record or a
// CRC fails — the receiver keeps everything before the tear and
// refetches from there.
type FrameScanner struct {
	r       io.Reader
	payload []byte
}

// NewFrameScanner wraps r for frame-by-frame reading.
func NewFrameScanner(r io.Reader) *FrameScanner { return &FrameScanner{r: r} }

// Next reads one frame, verifying its CRC. The returned payload is
// valid until the next call.
func (s *FrameScanner) Next() (gen uint64, payload []byte, err error) {
	var header [walFrameHeader]byte
	if _, err := io.ReadFull(s.r, header[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrTornFrame
	}
	gen = binary.BigEndian.Uint64(header[0:8])
	n := binary.BigEndian.Uint32(header[8:12])
	crc := binary.BigEndian.Uint32(header[12:16])
	if int64(n) > maxWALRecord {
		return 0, nil, ErrTornFrame
	}
	if int(n) <= cap(s.payload) {
		s.payload = s.payload[:n]
		if _, err := io.ReadFull(s.r, s.payload); err != nil {
			return 0, nil, ErrTornFrame
		}
	} else {
		// Grow by the bytes the stream holds, not by what the length
		// field claims: a corrupt length cannot allocate past them.
		buf := bytes.NewBuffer(s.payload[:0])
		if m, err := buf.ReadFrom(io.LimitReader(s.r, int64(n))); err != nil || m != int64(n) {
			return 0, nil, ErrTornFrame
		}
		s.payload = buf.Bytes()
	}
	if frameCRC(header[0:12], s.payload) != crc {
		return 0, nil, ErrTornFrame
	}
	return gen, s.payload, nil
}

// OpenCheckpoint opens the newest on-disk checkpoint for reading and
// returns it with its generation and content fingerprint. The open file
// descriptor stays readable even if a concurrent checkpoint
// garbage-collects the file (the unlink only removes the name), so a
// long snapshot transfer survives checkpoints happening under it. The
// caller closes the file.
func (j *Journal) OpenCheckpoint() (f *os.File, gen uint64, fingerprint string, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.awaitCheckpointsLocked()
	gen = j.ckptGen.Load()
	if gen == 0 {
		return nil, 0, "", fmt.Errorf("live: no checkpoint to serve")
	}
	f, err = os.Open(j.ckptPath(gen))
	if err != nil {
		return nil, 0, "", fmt.Errorf("live: open checkpoint: %w", err)
	}
	return f, gen, j.checkpointFP(), nil
}

// awaitCheckpointsLocked lets every checkpoint started so far finish
// (or be superseded). A catching-up peer is served as if checkpoints
// still ran inside the commit hook: the snapshot is the newest one
// triggered, and the WAL horizon is its generation.
func (j *Journal) awaitCheckpointsLocked() {
	for want := j.queued; j.finished < want; {
		j.ran.Wait()
	}
}

func (j *Journal) checkpointFP() string {
	if p := j.ckptFP.Load(); p != nil {
		return *p
	}
	return ""
}

// TailReaderSince returns a reader positioned at the first WAL record
// above from, framed exactly as on disk (EncodeFrame layout), plus the
// tail's byte size and record count. A from below the checkpoint
// horizon returns ErrBelowHorizon — those records were
// garbage-collected, so the caller needs the full checkpoint first. A
// from at or past the newest record returns an empty tail. Only the
// scan that finds where the tail starts reads here — payload bytes flow
// straight from the segment files to the caller, so a large tail costs
// O(1) memory per concurrent transfer instead of a full in-memory copy
// each. The returned reader owns one descriptor per segment it covers
// (Close releases them); the sections are computed under the journal
// lock against the acknowledged segment sizes, so they never cover a
// half-written frame. A descriptor keeps its file readable after a
// checkpoint's GC unlinks it, so a checkpoint completing mid-transfer
// cuts nothing.
func (j *Journal) TailReaderSince(from uint64) (r io.ReadCloser, size int64, records int, err error) {
	files, sizes, err := j.openSegments(from)
	if err != nil {
		return nil, 0, 0, err
	}
	tail := &walTail{files: files}
	var parts []io.Reader
	for i, f := range files {
		start, recs, err := tailOf(f, sizes[i], from)
		if err != nil {
			tail.Close() //nolint:errcheck // already failing
			return nil, 0, 0, err
		}
		parts = append(parts, io.NewSectionReader(f, start, sizes[i]-start))
		size += sizes[i] - start
		records += recs
	}
	tail.Reader = io.MultiReader(parts...)
	return tail, size, records, nil
}

// openSegments opens every WAL segment for reading, with its
// acknowledged size, under the journal lock — a descriptor opened here
// stays readable whatever a checkpoint deletes afterwards, so the scans
// run without holding appends up.
func (j *Journal) openSegments(from uint64) (files []*os.File, sizes []int64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.wal == nil {
		return nil, nil, fmt.Errorf("live: tail of closed journal")
	}
	j.awaitCheckpointsLocked()
	if from < j.ckptGen.Load() {
		return nil, nil, ErrBelowHorizon
	}
	for i := 0; i <= len(j.sealed); i++ {
		name, n := j.active, j.walSize
		if i < len(j.sealed) {
			name, n = j.sealed[i].name, j.sealed[i].size
		}
		// A separate descriptor leaves the append position of j.wal alone.
		f, err := os.Open(j.path(name))
		if err != nil {
			(&walTail{files: files}).Close() //nolint:errcheck // already failing
			return nil, nil, fmt.Errorf("live: open wal for tail: %w", err)
		}
		files, sizes = append(files, f), append(sizes, n)
	}
	return files, sizes, nil
}

// tailOf scans the first size bytes of a WAL segment for the records
// above generation from, returning the offset of the first and their
// count.
func tailOf(f *os.File, size int64, from uint64) (start int64, records int, err error) {
	sc := NewFrameScanner(bufio.NewReader(io.NewSectionReader(f, 0, size)))
	start = size
	for off := int64(0); ; {
		gen, payload, err := sc.Next()
		if err == io.EOF {
			return start, records, nil
		}
		if err != nil {
			// The acknowledged prefix was validated at recovery and every
			// append since was framed by this process; a bad frame inside
			// it means on-disk corruption.
			return 0, 0, fmt.Errorf("live: wal tail at offset %d: %w", off, err)
		}
		if gen > from {
			if records == 0 {
				start = off
			}
			records++
		}
		off += walFrameHeader + int64(len(payload))
	}
}

// walTail streams sections of WAL segment files and owns (and closes)
// their descriptors.
type walTail struct {
	io.Reader
	files []*os.File
}

func (t *walTail) Close() error {
	var err error
	for _, f := range t.files {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
