package rex

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestAppendJSONMatchesMarshalIndent holds AppendJSON to its contract
// on every kind of result it can be asked for: computed or built as a
// literal, with and without a trace, first call and later ones.
func TestAppendJSONMatchesMarshalIndent(t *testing.T) {
	ex, err := NewExplainer(SampleKB(), Options{Measure: "size", TopK: 3, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	computed, err := ex.Explain("brad_pitt", "angelina_jolie")
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ex.ExplainContext(WithTrace(context.Background()), "brad_pitt", "angelina_jolie")
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil || !traced.Trace.CacheHit {
		t.Fatalf("second query was not a traced cache hit: %+v", traced.Trace)
	}
	literal := &Result{Start: "a\"< \xff", End: "b", Measure: "size", Truncated: true}
	literalTraced := *literal
	literalTraced.Trace = &QueryTrace{RequestID: "r&1", TotalMS: 0.25}

	for name, r := range map[string]*Result{
		"computed": computed, "traced hit": traced, "literal": literal, "literal traced": &literalTraced,
	} {
		want, err := json.MarshalIndent(r, "  ", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call <= 2; call++ {
			got, err := r.AppendJSON([]byte("dst:"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append([]byte("dst:"), want...)) {
				t.Errorf("%s, call %d: AppendJSON =\n%s\nwant dst: +\n%s", name, call, got, want)
			}
		}
	}
}

// TestResultEncodingSharedAcrossCopies: one computation, one encoding.
// The traced shallow copy of a hit and the entry a delta carried into
// the next generation's cache hold the holder the miss made, a caller
// that never asks for JSON leaves it empty, and the first caller that
// does fills it for all of them.
func TestResultEncodingSharedAcrossCopies(t *testing.T) {
	st := mustStore(t, clusteredKB(t, 2), Options{Measure: "size", TopK: 10, CacheSize: 8})
	miss := mustExplain(t, st, "s1", "t1")
	hit, err := st.Current().Explainer.ExplainContext(WithTrace(context.Background()), "s1", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if hit == miss || hit.enc != miss.enc {
		t.Fatalf("traced hit: copy %v, holder shared %v; want a private copy on the shared holder", hit != miss, hit.enc == miss.enc)
	}
	if info, err := st.Apply(strings.NewReader("edge\ts0\tt0\textra\n")); err != nil || info.ResultsCarried != 1 {
		t.Fatalf("delta: carried %d, err %v; want the (s1, t1) entry carried", info.ResultsCarried, err)
	}
	carried := mustExplain(t, st, "s1", "t1")
	if carried.enc != miss.enc {
		t.Fatal("carried entry lost the encoding holder")
	}
	if miss.enc.body != nil {
		t.Fatal("encoding built before anything asked for it")
	}
	first, err := hit.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	built := miss.enc.body
	if built == nil {
		t.Fatal("first AppendJSON did not fill the shared holder")
	}
	second, err := carried.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if &miss.enc.body[0] != &built[0] {
		t.Error("a later AppendJSON encoded again")
	}
	if !bytes.HasPrefix(first, second[:len(second)-len("\n  }")]) {
		t.Errorf("traced hit and carried entry disagree on the result:\n%s\n%s", first, second)
	}
}
