package kb_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

// overlayGeneration stacks depth deltas on g, each adding an entity, an
// edge to it and (every other round) a label, and removing nothing — the
// shape a checkpoint encodes between compactions.
func overlayGeneration(t testing.TB, g *kb.Graph, depth int) *kb.Graph {
	t.Helper()
	for round := 0; round < depth; round++ {
		b, err := kb.NewOverlayBuilder(g)
		if err != nil {
			t.Fatal(err)
		}
		id := b.AddNode(fmt.Sprintf("added_%d", round), "concept")
		label, err := b.Label(fmt.Sprintf("rel_%d", round/2), round%4 < 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddEdge(kb.NodeID(round), id, label); err != nil {
			t.Fatal(err)
		}
		g = b.Graph()
	}
	return g
}

// FuzzReadBinary hardens the snapshot loader, which faces the network
// (a peer's checkpoint, installed by the sync engine) and the disk (a
// journal's checkpoint, a -kb file): malformed bytes must produce an
// error — never a panic, and never an allocation sized by what a count
// claims rather than by the bytes that came. An accepted input is a
// graph: it re-encodes, and the re-encoding loads to the same content.
func FuzzReadBinary(f *testing.F) {
	sample := encode(f, kbgen.Sample())
	f.Add(sample)
	f.Add(encode(f, preset(f, "small")))
	f.Add(encode(f, overlayGeneration(f, kbgen.Sample(), 5)))
	// The corrupt cases of TestBinaryCSRRejectsCorrupt: a byte flipped
	// every seventh offset of the second half, and truncations.
	for i := len(sample) / 2; i < len(sample); i += 7 {
		mut := bytes.Clone(sample)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	for _, cut := range []int{len(sample) - 1, len(sample) / 2, 8, 0} {
		f.Add(sample[:cut])
	}
	f.Add([]byte("REXKB\x03\x00\x80\x80\x80\x80\x80\x80\x80\x80\x01")) // 2^56 nodes
	f.Add([]byte("REXKB\x04\x00\x80\x80\x80\x80\x80\x80\x80\x80\x01"))
	// A version 3 checkpoint, as a journal of an earlier build holds.
	v3, err := os.ReadFile(version3Fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := kb.ReadBinary(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		// A node costs 40 bytes of table and about as much of name index
		// for two bytes of input; nothing else comes close.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+1<<18); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(in), got, limit)
		}
		if err != nil {
			if g != nil {
				t.Fatal("non-nil graph returned alongside an error")
			}
			return
		}
		for id := kb.NodeID(0); int(id) < g.NumNodes(); id++ {
			for _, he := range g.Neighbors(id) {
				_ = g.NeighborsLabeled(he.To, he.Label)
			}
		}
		back, err := kb.ReadBinary(bytes.NewReader(encode(t, g)))
		if err != nil {
			t.Fatalf("re-encoding of an accepted snapshot does not load: %v", err)
		}
		if back.Fingerprint() != g.Fingerprint() || back.Stats() != g.Stats() {
			t.Fatalf("round trip changed content: %s %+v -> %s %+v", g.Fingerprint(), g.Stats(), back.Fingerprint(), back.Stats())
		}
	})
}
