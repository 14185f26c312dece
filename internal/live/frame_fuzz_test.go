package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzFrameScanner hardens the WAL frame scanner, which reads every
// segment a recovery replays and every tail a peer streams. Whatever the
// bytes, Next returns frames, then io.EOF or ErrTornFrame: never a
// panic, and never an allocation out of proportion to the input, however
// large a length field claims to be. Every frame it accepts re-encodes
// through EncodeFrame to the very bytes it was read from, and io.EOF
// comes only where those frames cover the whole input.
func FuzzFrameScanner(f *testing.F) {
	dir := f.TempDir()
	j, err := OpenJournal(dir, JournalOptions{Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	g := baseGraph(f)
	if err := j.Checkpoint(g, 1); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		d, err := ParseDelta(bytes.NewReader([]byte(walDelta(i))))
		if err != nil {
			f.Fatal(err)
		}
		if err := j.Append(uint64(i+2), d.AppendWire(nil)); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	for n, s := 0, NewFrameScanner(bytes.NewReader(seg)); ; n++ {
		if _, _, err := s.Next(); err != nil {
			if err != io.EOF || n != 4 {
				f.Fatalf("the seed segment holds %d frames, then %v; want 4, then io.EOF", n, err)
			}
			break
		}
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn mid-payload
	f.Add(seg[:walFrameHeader-1])
	corrupt := bytes.Clone(seg)
	corrupt[walFrameHeader+2] ^= 0x20
	f.Add(corrupt)
	f.Add(EncodeFrame(nil, 7, nil))
	huge := EncodeFrame(nil, 9, []byte("node\tx\tt\n"))
	binary.BigEndian.PutUint32(huge[8:12], 200<<20) // a length the stream cannot back
	f.Add(huge)
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := NewFrameScanner(bytes.NewReader(in))
		for {
			if _, _, err := s.Next(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		// The payload buffer grows by doubling, to the largest frame the
		// input holds.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(in)+1<<14); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(in), got, limit)
		}

		s = NewFrameScanner(bytes.NewReader(in))
		var out []byte
		for {
			gen, payload, err := s.Next()
			if err == io.EOF {
				if len(out) != len(in) {
					t.Fatalf("io.EOF after %d of %d bytes", len(out), len(in))
				}
				return
			}
			if err != nil {
				if !errors.Is(err, ErrTornFrame) {
					t.Fatalf("Next: %v, want io.EOF or ErrTornFrame", err)
				}
				return
			}
			out = EncodeFrame(out, gen, payload)
			if len(out) > len(in) || !bytes.Equal(out, in[:len(out)]) {
				t.Fatalf("frame %d (%d payload bytes) re-encodes to bytes the input does not hold there", gen, len(payload))
			}
		}
	})
}
