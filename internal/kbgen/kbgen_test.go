package kbgen

import (
	"bytes"
	"testing"

	"rex/internal/kb"
)

func TestSampleBasics(t *testing.T) {
	g := Sample()
	for _, name := range []string{
		"brad_pitt", "angelina_jolie", "tom_cruise", "nicole_kidman",
		"kate_winslet", "leonardo_dicaprio", "will_smith", "james_cameron",
		"mel_gibson", "helen_hunt", "titanic", "mr_and_mrs_smith",
	} {
		if g.NodeByName(name) == kb.InvalidNode {
			t.Errorf("sample KB missing %q", name)
		}
	}
	// Paper flagship facts.
	spouse := g.LabelByName(RelSpouse)
	star := g.LabelByName(RelStarring)
	if !g.HasEdge(g.NodeByName("brad_pitt"), g.NodeByName("angelina_jolie"), spouse) {
		t.Error("brad and angelina must be married in the sample")
	}
	if !g.HasEdge(g.NodeByName("interview_with_the_vampire"), g.NodeByName("tom_cruise"), star) {
		t.Error("tom cruise must star in interview with the vampire")
	}
	if g.LabelDirected(spouse) {
		t.Error("spouse must be undirected")
	}
	if !g.LabelDirected(star) {
		t.Error("starring must be directed")
	}
}

func TestSampleStudyPairsConnected(t *testing.T) {
	g := Sample()
	pairs := [][2]string{
		{"brad_pitt", "angelina_jolie"},
		{"kate_winslet", "leonardo_dicaprio"},
		{"tom_cruise", "will_smith"},
		{"james_cameron", "kate_winslet"},
		{"mel_gibson", "helen_hunt"},
	}
	for _, p := range pairs {
		s, e := g.NodeByName(p[0]), g.NodeByName(p[1])
		if s == kb.InvalidNode || e == kb.InvalidNode {
			t.Fatalf("study pair %v missing", p)
		}
		if c := g.Connectedness(s, e, 4, -1); c == 0 {
			t.Errorf("study pair %v disconnected within 4 hops", p)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Options{Scale: 0.3, Seed: 11})
	b := Generate(Options{Scale: 0.3, Seed: 11})
	var ba, bb bytes.Buffer
	if err := a.WriteTSV(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTSV(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Error("same seed produced different graphs")
	}
	c := Generate(Options{Scale: 0.3, Seed: 12})
	var bc bytes.Buffer
	if err := c.WriteTSV(&bc); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ba.Bytes(), bc.Bytes()) {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateScales(t *testing.T) {
	small := Generate(Options{Scale: 0.3, Seed: 5}).Stats()
	big := Generate(Options{Scale: 1.2, Seed: 5}).Stats()
	if big.Nodes <= small.Nodes || big.Edges <= small.Edges {
		t.Errorf("scale 1.2 (%+v) not larger than 0.3 (%+v)", big, small)
	}
}

func TestGenerateSchemaSanity(t *testing.T) {
	g := Generate(Options{Scale: 0.5, Seed: 9})
	// All 20 entity types are populated.
	for _, typ := range []string{
		TypeActor, TypeDirector, TypeProducer, TypeWriter, TypeMusician,
		TypeFilm, TypeTVShow, TypeBand, TypeAlbum, TypeSong, TypeGenre,
		TypeAward, TypeStudio, TypeCity, TypeCountry, TypeCharacter,
		TypeFranchise, TypeChannel, TypeFestival, TypeLabel,
	} {
		if len(g.NodesOfType(typ)) == 0 {
			t.Errorf("no entities of type %q", typ)
		}
	}
	// Every registered relationship label appears in relDirected.
	for _, l := range g.Labels() {
		if _, ok := relDirected[g.LabelName(l)]; !ok {
			t.Errorf("label %q not in relDirected", g.LabelName(l))
		}
	}
	// Films must have casts: every film has ≥1 outgoing starring edge.
	star := g.LabelByName(RelStarring)
	films := g.NodesOfType(TypeFilm)
	misses := 0
	for _, f := range films {
		found := false
		for _, he := range g.Neighbors(f) {
			if he.Label == star && he.Dir == kb.Out {
				found = true
				break
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 0 {
		t.Errorf("%d/%d films without cast", misses, len(films))
	}
}

func TestGeneratePopularitySkew(t *testing.T) {
	g := Generate(Options{Scale: 1, Seed: 42})
	star := g.LabelByName(RelStarring)
	deg := func(name string) int {
		n := g.NodeByName(name)
		c := 0
		for _, he := range g.Neighbors(n) {
			if he.Label == star {
				c++
			}
		}
		return c
	}
	// Zipf popularity: the first actor must star far more often than a
	// mid-tier one.
	top := deg("actor_0000")
	mid := deg("actor_0300")
	if top < 3*mid+3 {
		t.Errorf("popularity skew too weak: actor_0000=%d actor_0300=%d", top, mid)
	}
}

func TestSamplePairsBuckets(t *testing.T) {
	g := Generate(Options{Scale: 1, Seed: 42})
	pairs := SamplePairs(g, PairOptions{PerBucket: 5, Seed: 43})
	counts := map[kb.ConnBucket]int{}
	seen := map[[2]kb.NodeID]bool{}
	for _, p := range pairs {
		counts[p.Bucket]++
		if p.Start == p.End {
			t.Error("degenerate pair")
		}
		if seen[[2]kb.NodeID{p.Start, p.End}] {
			t.Error("duplicate pair")
		}
		seen[[2]kb.NodeID{p.Start, p.End}] = true
		// Bucket must match a recomputed (capped like the sampler)
		// connectedness.
		conn := g.Connectedness(p.Start, p.End, 4, 101)
		if kb.Bucket(conn) != p.Bucket {
			t.Errorf("pair bucket %v but connectedness %d", p.Bucket, conn)
		}
	}
	for _, b := range []kb.ConnBucket{kb.ConnLow, kb.ConnMedium, kb.ConnHigh} {
		if counts[b] != 5 {
			t.Errorf("bucket %v has %d pairs, want 5", b, counts[b])
		}
	}
}

func TestSamplePairsDeterministic(t *testing.T) {
	g := Generate(Options{Scale: 0.5, Seed: 1})
	a := SamplePairs(g, PairOptions{PerBucket: 3, Seed: 2})
	b := SamplePairs(g, PairOptions{PerBucket: 3, Seed: 2})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pair sampling not deterministic")
		}
	}
}

// TestGenerateReproducible pins the determinism contract the presets and
// the macro benchmark rely on: the same (preset, seed) always builds the
// byte-identical graph — equal fingerprints — and a different seed
// builds a different one.
func TestGenerateReproducible(t *testing.T) {
	opt, err := PresetOptions("small", 7)
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(opt)
	b := Generate(opt)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("same seed, different fingerprints: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	opt2 := opt
	opt2.Seed = 8
	c := Generate(opt2)
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("different seeds produced identical graphs")
	}
}

// TestMediumFingerprint pins the repository benchmark's KB, preset medium
// at seed 42, to the fingerprint benchmark/expected/ records: a change to
// the generator or the builder that moves the dataset fails here, not
// only when the benchmark runs. TestWorkGoldens -work-million pins
// million the same way.
func TestMediumFingerprint(t *testing.T) {
	opt, err := PresetOptions("medium", 42)
	if err != nil {
		t.Fatal(err)
	}
	if fp := Generate(opt).Fingerprint(); fp != "58edac2f14cc95e1" {
		t.Fatalf("medium seed 42 fingerprint %s, want 58edac2f14cc95e1", fp)
	}
}

// TestPresetOptions covers the preset table and its error path.
func TestPresetOptions(t *testing.T) {
	for _, name := range PresetNames() {
		opt, err := PresetOptions(name, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if opt.Scale <= 0 || opt.Seed != 42 {
			t.Errorf("%s: bad options %+v", name, opt)
		}
	}
	if _, err := PresetOptions("galactic", 1); err == nil {
		t.Error("unknown preset accepted")
	}
}
