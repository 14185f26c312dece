package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rex/internal/kb"
)

// TestQuickKeyAgreesWithCanonicalString property-checks the hashed key
// against the string canonicalisation it replaces: for random pattern
// pairs up to the size limit, the 64-bit interned keys are equal exactly
// when the canonical strings are equal — i.e. exactly when the patterns
// are isomorphic with targets pinned.
func TestQuickKeyAgreesWithCanonicalString(t *testing.T) {
	gb := kb.NewBuilder()
	labels := []kb.LabelID{
		gb.MustLabel("d1", true), gb.MustLabel("d2", true), gb.MustLabel("u1", false),
	}
	g := gb.Build()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPattern(g, labels, rng)
		// Half the time compare against an isomorphic relabeling of p,
		// half the time against an independent random pattern, so both
		// directions of the equivalence get exercised.
		var q *Pattern
		if seed%2 == 0 {
			q = relabelFree(g, p, rng)
		} else {
			q = randomPattern(g, labels, rng)
		}
		return (p.Key() == q.Key()) == (p.CanonicalKey() == q.CanonicalKey())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// relabelFree renames p's free variables by a random permutation,
// producing an isomorphic pattern.
func relabelFree(g *kb.Graph, p *Pattern, rng *rand.Rand) *Pattern {
	n := p.NumVars()
	if n <= 2 {
		return p
	}
	freePerm := rng.Perm(n - 2)
	rename := func(v VarID) VarID {
		if v < 2 {
			return v
		}
		return VarID(freePerm[v-2] + 2)
	}
	var renamed []Edge
	for _, e := range p.Edges() {
		renamed = append(renamed, Edge{U: rename(e.U), V: rename(e.V), Label: e.Label})
	}
	return MustNew(g, n, renamed)
}

// TestKeyInterningIsStable checks that re-deriving a pattern yields the
// same interned key, and that the key is cached on the pattern.
func TestKeyInterningIsStable(t *testing.T) {
	g, star, _, dir := testSchema(t)
	mk := func() *Pattern {
		return MustNew(g, 4, []Edge{
			{U: 2, V: Start, Label: star},
			{U: 2, V: End, Label: star},
			{U: 2, V: 3, Label: dir},
		})
	}
	p, q := mk(), mk()
	if p.Key() != q.Key() {
		t.Fatal("equal patterns got different keys")
	}
	if p.Key() != p.Key() {
		t.Fatal("key not stable across calls")
	}
	if Key(fnv64(p.CanonicalKey())) != p.Key() {
		t.Fatal("key is not the FNV-1a hash of the canonical encoding (rank tie-breaking relies on this)")
	}
}

// TestCanonicalKeyAllocs bounds the allocation cost of computing a
// canonical key from scratch: the permutation search must reuse its
// buffers, leaving only the pattern-level caches (encoding string, best
// permutation, scratch) — a constant, not factorial, count.
func TestCanonicalKeyAllocs(t *testing.T) {
	g, star, _, dir := testSchema(t)
	edges := []Edge{
		{U: 2, V: Start, Label: star},
		{U: 2, V: End, Label: star},
		{U: 3, V: Start, Label: star},
		{U: 3, V: 4, Label: dir},
		{U: 2, V: 4, Label: dir},
		{U: 3, V: End, Label: star},
	}
	allocs := testing.AllocsPerRun(100, func() {
		p := MustNew(g, 5, edges)
		_ = p.CanonicalKey()
	})
	// MustNew itself allocates (pattern + normalised edges); the
	// canonicalisation adds a handful of fixed buffers. 12 leaves wide
	// headroom while still failing if per-permutation allocation
	// returns (3! permutations × several allocs each would exceed it
	// for this 3-free-variable pattern... and real regressions show up
	// at larger sizes first).
	if allocs > 12 {
		t.Errorf("CanonicalKey allocates %.0f times per fresh pattern; want ≤ 12", allocs)
	}
}

// TestInstanceKeyLegacyOrder pins the InstanceKey sort order to the
// legacy byte-string order (little-endian per ID): rendered instance
// lists must not reorder across the key representation change.
func TestInstanceKeyLegacyOrder(t *testing.T) {
	// 256 encodes as bytes [0,1,0,0]; 1 as [1,0,0,0] — the legacy
	// string order put 256 first.
	lo := Instance{256}.Key()
	hi := Instance{1}.Key()
	if lo.Compare(hi) >= 0 || hi.Compare(lo) <= 0 || lo.Compare(lo) != 0 {
		t.Error("InstanceKey order diverges from the legacy little-endian byte order")
	}
	// Prefix rule: a shorter key that is a prefix sorts first.
	short := Instance{7}.Key()
	long := Instance{7, 0}.Key()
	if short.Compare(long) >= 0 || long.Compare(short) <= 0 {
		t.Error("prefix ordering broken")
	}
}
