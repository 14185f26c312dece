package kb_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// deliberate format change bumps the version and re-pins them.
func TestBinaryWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *kb.Graph
		size   int
		sha256 string
	}{
		{"sample", kbgen.Sample(), 2509, "4a87a0115af8752f269a557762132c68ca2f48659ecec804c6d7d27ef15a0348"},
		{"small seed 42", preset(t, "small"), 131950, "5d75942965adbb2850c4d2e76be839762a998e331da389f96f768e2d68a65838"},
	} {
		data := encode(t, tc.g)
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); len(data) != tc.size || got != tc.sha256 {
			t.Errorf("%s: %d bytes, sha256 %s; pinned %d bytes, %s", tc.name, len(data), got, tc.size, tc.sha256)
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
