package kb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
	if !g2.Frozen() {
		t.Error("binary load must return a frozen graph")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := randomGraph(3, 15)
	path := filepath.Join(t.TempDir(), "kb.bin")
	if err := g.SaveBinary(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsEqual(t, g, g2)
}

func TestBinaryPreservesIDs(t *testing.T) {
	g := randomGraph(9, 12)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Declaration order is preserved, so IDs are stable — important for
	// tools that persist node IDs alongside the KB.
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.Node(id).Name != g2.Node(id).Name {
			t.Fatalf("node %d renamed: %q vs %q", id, g.Node(id).Name, g2.Node(id).Name)
		}
	}
	for _, l := range g.Labels() {
		if g.LabelName(l) != g2.LabelName(l) || g.LabelDirected(l) != g2.LabelDirected(l) {
			t.Fatalf("label %d changed", l)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad magic", "NOTKB\x01"},
		{"truncated header", "REX"},
		{"truncated body", "REXKB\x01\x05"},
	}
	for _, tc := range cases {
		if _, err := ReadBinary(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestBinaryRejectsWrongVersion(t *testing.T) {
	g, _, _, _, _, _ := buildTiny(t)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(binaryMagic)] = 99 // version byte
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Error("future version accepted")
	}
}

// TestQuickBinaryRoundTrip property-checks binary serialisation against
// random graphs, and that TSV and binary loads agree with each other.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		nodes := int(sz%20) + 2
		g := randomGraph(seed, nodes)
		var bin, tsv bytes.Buffer
		if g.WriteBinary(&bin) != nil || g.WriteTSV(&tsv) != nil {
			return false
		}
		gb, err := ReadBinary(&bin)
		if err != nil {
			return false
		}
		gt, err := ReadTSV(&tsv)
		if err != nil {
			return false
		}
		if gb.NumNodes() != gt.NumNodes() || gb.NumEdges() != gt.NumEdges() {
			return false
		}
		for _, e := range gb.Edges() {
			f2 := gt.NodeByName(gb.NodeName(e.From))
			t2 := gt.NodeByName(gb.NodeName(e.To))
			l2 := gt.LabelByName(gb.LabelName(e.Label))
			if !gt.HasEdge(f2, t2, l2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryCSRRoundTripFingerprint is the CSR-layout round-trip guard:
// the loaded graph must carry identical CSR arrays (checked via the
// public accessors) and its content fingerprint — recomputed from the
// loaded structure, not trusted from the file — must equal the
// original's.
func TestBinaryCSRRoundTripFingerprint(t *testing.T) {
	g := randomGraph(5, 40)
	g.Freeze()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Frozen() {
		t.Fatal("CSR load must return a frozen graph")
	}
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		a, b := g.Neighbors(id), g2.Neighbors(id)
		if len(a) != len(b) {
			t.Fatalf("node %d: degree %d vs %d", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d half-edge %d: %+v vs %+v", id, i, a[i], b[i])
			}
		}
		for _, l := range g.Labels() {
			la, lb := g.NeighborsLabeled(id, l), g2.NeighborsLabeled(id, l)
			if len(la) != len(lb) {
				t.Fatalf("node %d label %d: %d vs %d labeled half-edges", id, l, len(la), len(lb))
			}
			for i := range la {
				if la[i] != lb[i] {
					t.Fatalf("node %d label %d entry %d differs", id, l, i)
				}
			}
		}
	}
	// The file carries the fingerprint; verify it against a from-scratch
	// recomputation over the loaded content so a corrupted-but-parsable
	// payload cannot masquerade as the original.
	if got := g2.fingerprint(); got != g.Fingerprint() {
		t.Errorf("recomputed fingerprint %s != original %s", got, g.Fingerprint())
	}
	if g2.Fingerprint() != g.Fingerprint() {
		t.Errorf("served fingerprint %s != original %s", g2.Fingerprint(), g.Fingerprint())
	}
}

// TestBinaryCSRRejectsCorrupt feeds structurally broken v2 payloads to
// the loader.
func TestBinaryCSRRejectsCorrupt(t *testing.T) {
	g := randomGraph(7, 12)
	g.Freeze()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := len(data) / 2; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		// A flip may be absorbed (e.g. inside the stored fingerprint
		// text) or rejected; it must never panic or hang, and a graph
		// that does load must be internally consistent enough to walk.
		if g2, err := ReadBinary(bytes.NewReader(mut)); err == nil {
			for id := NodeID(0); int(id) < g2.NumNodes(); id++ {
				_ = g2.Neighbors(id)
			}
		}
	}
	// Truncations must always fail loudly.
	for _, cut := range []int{len(data) - 1, len(data) / 2, 8} {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes loaded successfully", cut)
		}
	}
}

// TestBinaryCountsAreClaims feeds the reader headers whose counts promise
// far more than the bytes behind them. Each count is checked against the
// bytes that remain before anything is sized from it, so each body is an
// error naming its section — not an allocation of what the count claims
// (at 2⁴⁰ nodes that was "fatal error: out of memory", which no recover
// catches).
func TestBinaryCountsAreClaims(t *testing.T) {
	header := func(fields ...uint64) []byte {
		b := append([]byte(binaryMagic), binaryVersion)
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return b
	}
	// Two nameless-but-distinct nodes of degree 2³⁰−1 each: every header
	// invariant holds (degree sum 2³¹−2 = 2 × edges) and no half-edge
	// follows.
	hub := header(0, 2)
	hub = append(hub, 1, 'a', 0, 1, 'b', 0)
	for range 3 { // the edge count, then the two degrees
		hub = binary.AppendUvarint(hub, 1<<30-1)
	}
	cases := []struct {
		name, want string
		body       []byte
	}{
		{"2^40 nodes in 13 bytes", "node count", header(0, 1<<40)},
		{"2^40 labels", "label count", header(1 << 40)},
		{"degree sum 2^31-2, no half-edges", "half-edge count", hub},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadBinary(bytes.NewReader(tc.body))
		runtime.ReadMemStats(&after)
		if err == nil || g != nil {
			t.Fatalf("%s: loaded", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the %s", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: %d bytes allocated to refuse %d bytes of input", tc.name, got, len(tc.body))
		}
	}
}

// TestBinaryHeaderCheckedAgainstItself: the stored fingerprint must be the
// one its own counts and item hash derive, and the snapshot must end where
// the format says it does.
func TestBinaryHeaderCheckedAgainstItself(t *testing.T) {
	g := randomGraph(7, 12)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mutate := func(at int) []byte {
		mut := bytes.Clone(data)
		mut[at] ^= 0x01
		return mut
	}
	cases := []struct {
		name, want string
		body       []byte
	}{
		{"fingerprint digit", "fingerprint", mutate(len(data) - 9)},
		{"item hash bit", "fingerprint", mutate(len(data) - 1)},
		{"one trailing byte", "after the end", append(bytes.Clone(data), 0)},
		{"two transfers in one spool", "after the end", append(bytes.Clone(data), data...)},
	}
	for _, tc := range cases {
		_, err := ReadBinary(bytes.NewReader(tc.body))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestBinaryEveryPrefixFails cuts a 500-node snapshot at every offset:
// the whole decodes to exactly the arrays a freeze builds, and no strict
// prefix decodes at all.
func TestBinaryEveryPrefixFails(t *testing.T) {
	g := randomBase(rand.New(rand.NewSource(22)), 500, 5, 1500)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	back, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	requireSameArrays(t, "loaded", back, g)
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeBinary(data[:cut:cut]); err == nil {
			t.Fatalf("the first %d of %d bytes loaded", cut, len(data))
		}
	}
}
