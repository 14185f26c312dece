package rex

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/relstore"
)

// TestAppendJSONMatchesMarshal holds AppendJSON to its contract on
// every kind of result it can be asked for: computed (with and without
// SQL) or built as a literal, with and without a trace, first call and
// later ones.
func TestAppendJSONMatchesMarshal(t *testing.T) {
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
	withSQL, err := ex.Query(WithTrace(context.Background()), Request{Pair: Pair{Start: "brad_pitt", End: "angelina_jolie"}, SQL: true})
	if err != nil {
		t.Fatal(err)
	}
	literal := &Result{Start: "a\"< \xff", End: "b", Measure: "size", Truncated: true}
	literalTraced := *literal
	literalTraced.Trace = &QueryTrace{RequestID: "r&1", TotalMS: 0.25}

	for name, r := range map[string]*Result{
		"computed": computed, "traced hit": traced, "traced sql": withSQL,
		"literal": literal, "literal traced": &literalTraced,
	} {
		want, err := json.Marshal(r)
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
// The traced shallow copy of a hit and a later plain hit hold the holder
// the miss made, a caller that never asks for JSON leaves it empty, and
// the first caller that does fills it for all of them.
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
	again := mustExplain(t, st, "s1", "t1")
	if again != miss {
		t.Fatal("plain hit is not the cached result")
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
	second, err := again.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if &miss.enc.body[0] != &built[0] {
		t.Error("a later AppendJSON encoded again")
	}
	if !bytes.HasPrefix(first, second[:len(second)-1]) {
		t.Errorf("traced hit and plain hit disagree on the result:\n%s\n%s", first, second)
	}
}

// TestSQLOnRequest: an answer carries SQL only when its query asked for
// it. The two answers are two cache entries, equal but for the SQL, and
// the SQL is relstore.SQL of each explanation's pattern and count.
func TestSQLOnRequest(t *testing.T) {
	ex, err := NewExplainer(SampleKB(), Options{TopK: 5, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	const start, end = "brad_pitt", "angelina_jolie"
	plain, err := ex.Explain(start, end)
	if err != nil {
		t.Fatal(err)
	}
	withSQL, err := ex.Query(context.Background(), Request{Pair: Pair{Start: start, End: end}, SQL: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := ex.CacheStats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 2 {
		t.Fatalf("plain then sql: cache %+v, want two misses and two entries", st)
	}
	again, err := ex.Query(context.Background(), Request{Pair: Pair{Start: start, End: end}, SQL: true})
	if err != nil {
		t.Fatal(err)
	}
	if again != withSQL {
		t.Error("a second sql query did not hit the sql entry")
	}

	plainJSON, err := plain.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plainJSON, []byte(`"SQL"`)) {
		t.Errorf("a plain answer carries SQL: %s", plainJSON)
	}
	if len(withSQL.Explanations) == 0 || len(withSQL.Explanations) != len(plain.Explanations) {
		t.Fatalf("%d explanations with SQL, %d without", len(withSQL.Explanations), len(plain.Explanations))
	}

	// The explainer ranks what enumeration found, so every ranked
	// pattern is among the enumerated ones.
	g := ex.kb.g
	es, _, err := enumerate.ExplanationsBudgeted(context.Background(), g, g.NodeByName(start), g.NodeByName(end), ex.cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, e := range es {
		want[e.P.String()] = relstore.SQL(g, e.P, e.Count(), -1)
	}
	for i, e := range withSQL.Explanations {
		if e.SQL == "" || e.SQL != want[e.Pattern] {
			t.Errorf("explanation %d (%s): SQL\n%s\nwant\n%s", i, e.Pattern, e.SQL, want[e.Pattern])
		}
	}
	stripped := *withSQL
	stripped.Explanations = nil
	for _, e := range withSQL.Explanations {
		e.SQL = ""
		stripped.Explanations = append(stripped.Explanations, e)
	}
	if b, _ := json.Marshal(&stripped); !bytes.Equal(b, plainJSON) {
		t.Errorf("the sql answer without its SQL is not the plain answer:\n%s\n%s", b, plainJSON)
	}
}
