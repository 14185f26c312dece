package kb

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzReadTSV hardens the TSV parser: the live subsystem's delta path
// (POST /admin/delta in cmd/rexserve) feeds attacker-controlled input
// into this record syntax, so malformed bytes must produce an error,
// never a panic, and never an allocation out of proportion to the input.
// On accepted input the parsed graph must be usable and survive a
// write/re-read round trip.
func FuzzReadTSV(f *testing.F) {
	seeds := []string{
		"",
		"# just a comment\n",
		"node\ta\tperson\nnode\tb\tperson\nlabel\tknows\tU\nedge\ta\tb\tknows\n",
		"node\ta\tperson\nlabel\tdirected_by\tD\n",
		"node\ta\tperson\nnode\ta\tfilm\n",         // duplicate name keeps first type
		"node\ta\n",                                // wrong field count
		"node\ta\tb\tc\n",                          // too many fields
		"label\tx\tZ\n",                            // bad direction
		"label\tx\tD\nlabel\tx\tU\n",               // directedness conflict
		"edge\ta\tb\tknows\n",                      // undeclared everything
		"node\ta\tt\nlabel\tl\tU\nedge\ta\ta\tl\n", // self-loop
		"bogus\trecord\n",
		"\t\t\t\n",
		"node\t\t\n", // empty name and type
		"node\ta\tt\r\n",
		strings.Repeat("x", 4096) + "\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadTSV(strings.NewReader(in))
		runtime.ReadMemStats(&after)
		// The costliest line is a node with a short new name and a new
		// type: its table entry, name index and type list, its adjacency
		// slot and its CSR offsets come to about 50 bytes per input byte.
		// The constant is the line buffer's first 4 KiB.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(96*len(in)+1<<14); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(in), got, limit)
		}
		if err != nil {
			if g != nil {
				t.Fatal("non-nil graph returned alongside an error")
			}
			return
		}
		// Accepted input must yield a usable graph.
		st := g.Stats()
		if st.Edges > 0 && st.Nodes == 0 {
			t.Fatalf("impossible stats: %+v", st)
		}
		// Round trip: what we serialise must parse back to the same
		// content. Carriage returns are excluded — bufio.ScanLines
		// strips a trailing \r, so names ending in \r do not survive
		// re-serialisation by design.
		if strings.ContainsRune(in, '\r') {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteTSV(&buf); err != nil {
			t.Fatalf("WriteTSV: %v", err)
		}
		g2, err := ReadTSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-read of serialised graph failed: %v\ninput: %q\nserialised: %q", err, in, buf.String())
		}
		if g2.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed content: %s -> %s\ninput: %q", g.Fingerprint(), g2.Fingerprint(), in)
		}
	})
}
