package rex

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rex/internal/enumerate"
	"rex/internal/measure"
	"rex/internal/rank"
)

func TestSampleKBStats(t *testing.T) {
	kb := SampleKB()
	st := kb.Stats()
	if st.Nodes == 0 || st.Edges == 0 || st.Labels == 0 {
		t.Fatalf("empty sample KB: %+v", st)
	}
	if !kb.HasEntity("brad_pitt") || kb.HasEntity("ghost_entity") {
		t.Error("HasEntity broken")
	}
	actors := kb.Entities("actor")
	if len(actors) == 0 {
		t.Error("no actors listed")
	}
	all := kb.Entities("")
	if len(all) != st.Nodes {
		t.Errorf("Entities(\"\") = %d, want %d", len(all), st.Nodes)
	}
}

func TestTSVRoundTripPublic(t *testing.T) {
	kb := SampleKB()
	path := filepath.Join(t.TempDir(), "kb.tsv")
	if err := kb.SaveTSV(path); err != nil {
		t.Fatal(err)
	}
	kb2, err := LoadKB(path)
	if err != nil {
		t.Fatal(err)
	}
	if kb2.Stats() != kb.Stats() {
		t.Errorf("stats changed: %+v vs %+v", kb2.Stats(), kb.Stats())
	}
	var buf bytes.Buffer
	if err := kb.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	kb3, err := ReadKB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kb3.Stats() != kb.Stats() {
		t.Error("ReadKB stats differ")
	}
}

// TestLoadKBDetectsFormat: one entry point, both formats, told apart by
// the magic — including files too short to hold one.
func TestLoadKBDetectsFormat(t *testing.T) {
	kb := SampleKB()
	dir := t.TempDir()
	bin, tsv := filepath.Join(dir, "kb.bin"), filepath.Join(dir, "kb.tsv")
	if err := kb.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	if err := kb.SaveTSV(tsv); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, tsv} {
		got, err := LoadKB(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != kb.Fingerprint() {
			t.Errorf("%s: fingerprint %s, want %s", filepath.Base(path), got.Fingerprint(), kb.Fingerprint())
		}
	}
	short := filepath.Join(dir, "short")
	for body, wantErr := range map[string]bool{"": false, "REX": true, "REXKB": true, "# a\n": false} {
		if err := os.WriteFile(short, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadKB(short); (err != nil) != wantErr {
			t.Errorf("LoadKB of %q: error %v, want error %v", body, err, wantErr)
		}
	}
}

func TestLoadKBMissingFile(t *testing.T) {
	if _, err := LoadKB(filepath.Join(t.TempDir(), "nope.tsv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGenerateKBPublic(t *testing.T) {
	kb := GenerateKB(GenOptions{Scale: 0.3, Seed: 5})
	if kb.Stats().Nodes == 0 {
		t.Fatal("generated KB empty")
	}
	kb2 := GenerateKB(GenOptions{Scale: 0.3, Seed: 5})
	if kb.Stats() != kb2.Stats() {
		t.Error("generation not deterministic through the public API")
	}
}

func TestNewExplainerValidation(t *testing.T) {
	kb := SampleKB()
	if _, err := NewExplainer(kb, Options{Measure: "bogus"}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := NewExplainer(kb, Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

func TestMeasureNamesResolve(t *testing.T) {
	for _, name := range MeasureNames() {
		m, err := MeasureByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("measure %q reports name %q", name, m.Name())
		}
	}
	if _, err := MeasureByName("nope"); err == nil {
		t.Error("unknown measure accepted")
	}
}

func TestExplainErrors(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Explain("ghost", "brad_pitt"); err == nil {
		t.Error("unknown start accepted")
	}
	if _, err := ex.Explain("brad_pitt", "ghost"); err == nil {
		t.Error("unknown end accepted")
	}
	if _, err := ex.Explain("brad_pitt", "brad_pitt"); err == nil {
		t.Error("identical pair accepted")
	}
}

func TestExplainBasics(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size", TopK: 5, MaxInstancesPerExplanation: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explain("brad_pitt", "angelina_jolie")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 || len(res.Explanations) > 5 {
		t.Fatalf("got %d explanations", len(res.Explanations))
	}
	top := res.Explanations[0]
	if !strings.Contains(top.Pattern, "spouse") {
		t.Errorf("smallest explanation should be the spouse edge, got %s", top.Pattern)
	}
	if !top.IsPath || top.Size != 2 || top.NumInstances != 1 || top.Monocount != 1 {
		t.Errorf("spouse explanation fields: %+v", top)
	}
	if len(top.Instances) != 1 || top.Instances[0].Bindings[0] != "brad_pitt" {
		t.Errorf("instances rendered wrong: %+v", top.Instances)
	}
	if top.SQL != "" {
		t.Errorf("SQL rendered for a query that did not ask: %s", top.SQL)
	}
	if top.Description == "" {
		t.Error("empty description")
	}
	for _, e := range res.Explanations {
		if len(e.Instances) > 2 {
			t.Errorf("instance truncation ignored: %d", len(e.Instances))
		}
	}
	withSQL, err := ex.Query(context.Background(), Request{Pair: Pair{Start: "brad_pitt", End: "angelina_jolie"}, SQL: true})
	if err != nil {
		t.Fatal(err)
	}
	if sql := withSQL.Explanations[0].SQL; !strings.Contains(sql, "spouse") {
		t.Errorf("SQL rendering missing label: %s", sql)
	}
}

// TestExplainPruningEquivalence checks that the explainer's pruned
// ranking returns the same explanations as unpruned ranking —
// rank.GeneralBudgeted over the full enumeration — for every measure on a real
// pair.
func TestExplainPruningEquivalence(t *testing.T) {
	kb := SampleKB()
	g := kb.g
	s, e := g.NodeByName("kate_winslet"), g.NodeByName("leonardo_dicaprio")
	all, _, _ := enumerate.ExplanationsBudgeted(context.Background(), g, s, e, enumerate.Config{})
	for _, name := range MeasureNames() {
		if name == "global-dist" {
			continue // exercised separately; slow with 100 samples
		}
		pruned, err := NewExplainer(kb, Options{Measure: name, TopK: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := pruned.Explain("kate_winslet", "leonardo_dicaprio")
		if err != nil {
			t.Fatal(err)
		}
		m, err := MeasureByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mctx := &measure.Context{G: g, Start: s, End: e}
		if needsGlobalSamples(m) {
			mctx.SampleStarts = measure.SampleStartsOfType(g, g.Node(s).Type, 100, 0) // the Options defaults
		}
		b, _, _ := rank.GeneralBudgeted(context.Background(), mctx, all, m, 5)
		if len(a.Explanations) != len(b) {
			t.Errorf("%s: pruned %d vs full %d", name, len(a.Explanations), len(b))
			continue
		}
		for i := range a.Explanations {
			if want := b[i].Ex.P.String(); a.Explanations[i].Pattern != want {
				t.Errorf("%s: rank %d differs: %s vs %s", name, i, a.Explanations[i].Pattern, want)
				break
			}
		}
	}
}

func TestExplainGlobalDist(t *testing.T) {
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "global-dist", TopK: 3, GlobalSamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explain("brad_pitt", "angelina_jolie")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 {
		t.Fatal("no explanations under global-dist")
	}
}

func TestConnectednessPublic(t *testing.T) {
	kb := SampleKB()
	c, err := kb.Connectedness("brad_pitt", "angelina_jolie", 4)
	if err != nil || c == 0 {
		t.Fatalf("connectedness = %d, err %v", c, err)
	}
	if _, err := kb.Connectedness("ghost", "brad_pitt", 4); err == nil {
		t.Error("unknown entity accepted")
	}
	if _, err := kb.Connectedness("brad_pitt", "ghost", 4); err == nil {
		t.Error("unknown entity accepted")
	}
}

func TestResultMetadata(t *testing.T) {
	kb := SampleKB()
	ex, _ := NewExplainer(kb, Options{Measure: "monocount", TopK: 3})
	res, err := ex.Explain("tom_cruise", "nicole_kidman")
	if err != nil {
		t.Fatal(err)
	}
	if res.Start != "tom_cruise" || res.End != "nicole_kidman" || res.Measure != "monocount" {
		t.Errorf("result metadata: %+v", res)
	}
}
