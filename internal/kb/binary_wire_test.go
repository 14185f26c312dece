package kb_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rex/internal/kb"
	"rex/internal/kbgen"
)

func preset(t testing.TB, name string) *kb.Graph {
	t.Helper()
	opt, err := kbgen.PresetOptions(name, 42)
	if err != nil {
		t.Fatal(err)
	}
	return kbgen.Generate(opt)
}

func encode(t testing.TB, g *kb.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBinaryWireFormatPinned holds WriteBinary to the bytes the streaming
// encoder before it wrote: replicas of mixed builds exchange snapshots,
// and a journal written by one build is recovered by the next. The
// digests were computed at the commit before the codec was replaced; a
// deliberate format change bumps the version and re-pins them. Version 4
// re-pinned them: its spans are version 3's half-edges reordered to
// (Label, To, Dir), so the sizes stayed.
func TestBinaryWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *kb.Graph
		size   int
		sha256 string
	}{
		{"sample", kbgen.Sample(), 2509, "d394c4b7a87cf773ff32a59b26a9b9ef4bb220c5a78db8d0c409a0be31d0ef75"},
		{"small seed 42", preset(t, "small"), 131950, "505e33ec4844d1c306d1d52dd3478a3c0b660c68e37a454e6ce848d78052fd60"},
	} {
		data := encode(t, tc.g)
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != tc.size || got != tc.sha256 {
			t.Errorf("%s: %d bytes, sha256 %s; pinned %d bytes, %s", tc.name, len(data), got, tc.size, tc.sha256)
		}
	}
}

// version3Fixture is a version 3 checkpoint a journal of an earlier
// build holds, which a replica restarting on it must still load.
var version3Fixture = filepath.Join("..", "..", "testdata", "journal-wal-log", "checkpoint-0000000000000004.rexkb")

// TestBinaryVersion3FixtureReencodes loads the committed version 3
// checkpoint, writes it as version 4 and loads that: both loads must
// answer alike on every node.
func TestBinaryVersion3FixtureReencodes(t *testing.T) {
	data, err := os.ReadFile(version3Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if data[len("REXKB")] != 3 {
		t.Fatalf("the fixture is version %d, not 3", data[len("REXKB")])
	}
	v3, err := kb.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	reencoded := encode(t, v3)
	if reencoded[len("REXKB")] != 4 {
		t.Fatalf("re-encoded as version %d, not 4", reencoded[len("REXKB")])
	}
	v4, err := kb.ReadBinary(bytes.NewReader(reencoded))
	if err != nil {
		t.Fatal(err)
	}
	if v4.Fingerprint() != v3.Fingerprint() || v4.Stats() != v3.Stats() {
		t.Fatalf("version 4 load %s %+v, version 3 load %s %+v", v4.Fingerprint(), v4.Stats(), v3.Fingerprint(), v3.Stats())
	}
	for id := kb.NodeID(0); int(id) < v3.NumNodes(); id++ {
		if !slices.Equal(v4.Neighbors(id), v3.Neighbors(id)) {
			t.Fatalf("node %d: Neighbors differ", id)
		}
		for _, l := range v3.Labels() {
			if !slices.Equal(v4.NeighborsLabeled(id, l), v3.NeighborsLabeled(id, l)) {
				t.Fatalf("node %d label %d: NeighborsLabeled differ", id, l)
			}
		}
	}
}

// TestBinaryMediumSameGraph decodes the repository benchmark's KB and
// compares everything the engine reads from a graph with the graph that
// was encoded: the loader builds its arrays from the bytes, the generator
// built them with a Builder.
func TestBinaryMediumSameGraph(t *testing.T) {
	want := preset(t, "medium")
	got, err := kb.ReadBinary(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || got.Stats() != want.Stats() {
		t.Fatalf("loaded %s %+v, encoded %s %+v", got.Fingerprint(), got.Stats(), want.Fingerprint(), want.Stats())
	}
	labels := want.Labels()
	types := map[string]bool{}
	for _, n := range want.Nodes() {
		id := n.ID
		if got.Node(id) != n || got.NodeByName(n.Name) != id {
			t.Fatalf("node %d: %+v looked up as %d, want %+v", id, got.Node(id), got.NodeByName(n.Name), n)
		}
		if !slices.Equal(got.Neighbors(id), want.Neighbors(id)) {
			t.Fatalf("node %d: Neighbors differ", id)
		}
		for _, l := range labels {
			if !slices.Equal(got.NeighborsLabeled(id, l), want.NeighborsLabeled(id, l)) {
				t.Fatalf("node %d label %d: NeighborsLabeled differ", id, l)
			}
		}
		types[n.Type] = true
	}
	for _, l := range labels {
		if got.LabelName(l) != want.LabelName(l) || got.LabelDirected(l) != want.LabelDirected(l) {
			t.Fatalf("label %d differs", l)
		}
	}
	for typ := range types {
		if !slices.Equal(got.NodesOfType(typ), want.NodesOfType(typ)) {
			t.Fatalf("NodesOfType(%q) differs", typ)
		}
	}
	if got.NodeByName("no such entity") != kb.InvalidNode || len(got.NodesOfType("no such type")) != 0 {
		t.Fatal("lookups of absent names answer")
	}
}
