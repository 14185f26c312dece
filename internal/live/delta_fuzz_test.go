package live

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzParseDelta hardens the delta parser, which reads what /admin/delta
// is sent and every WAL record a recovery or a peer's tail replays:
// malformed input must produce an error — never a panic, and never an
// allocation out of proportion to the input. An accepted delta is what
// the WAL stores: its wire encoding re-parses to the same ops and
// re-encodes to the same bytes, so a replay applies exactly what was
// acknowledged.
func FuzzParseDelta(f *testing.F) {
	f.Add([]byte(strings.Join([]string{
		"# a comment",
		"",
		"node\td\tfilm",
		"label\tstarring\tD",
		"label\tfriend\tU",
		"edge\ta\td\tstarring",
		"settype\ta\tdirector",
		"deledge\ta\tb\tknows",
	}, "\n")))
	f.Add([]byte("node\tx\tconcept\r\nedge\ta\tx\tknows\r\n"))
	f.Add([]byte("node\t\t\nedge\t\t\t\n"))
	f.Add([]byte(walDelta(7)))
	for _, bad := range []string{
		"grow\ta\tb", "node\ta", "settype\ta\tb\tc", "label\tx", "label\tx\tB",
		"edge\ta\tb", "deledge\ta\tb\tc\td", "\r\r", "node\ta\tb\r\r\n",
	} {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := ParseDelta(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		// An op is about 110 bytes plus its fields for a record of seven
		// bytes or more; the scanner's first buffer is 4 KiB.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+1<<16); got > limit {
			t.Fatalf("%d bytes of input allocated %d (limit %d)", len(in), got, limit)
		}
		if err != nil {
			if d != nil {
				t.Fatal("non-nil delta returned alongside an error")
			}
			return
		}
		wire := d.AppendWire(nil)
		back, err := ParseDelta(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("wire encoding %q of an accepted delta does not parse: %v", wire, err)
		}
		if len(back.Ops) != len(d.Ops) {
			t.Fatalf("round trip: %d ops, want %d", len(back.Ops), len(d.Ops))
		}
		for i := range d.Ops {
			a, b := d.Ops[i], back.Ops[i]
			a.Line, b.Line = 0, 0 // comments and blank lines are not encoded
			if a != b {
				t.Fatalf("op %d: %#v re-parses as %#v", i, a, b)
			}
		}
		if again := back.AppendWire(nil); !bytes.Equal(again, wire) {
			t.Fatalf("wire encoding is not a fixed point:\n%q\n%q", wire, again)
		}
	})
}
