package rex

// Tests for the facade's result cache: the steady-state cost of a hit,
// the bytes of its key, and its capacity bound.

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestCacheHitAllocBound pins the facade fast path: with the sharded
// cache warm, a repeated Explain performs only key construction and one
// sharded lookup — sharding must add no steady-state allocations (the
// key is one concatenation; the bound leaves one spare for a name long
// enough that strconv.Itoa of its length allocates).
func TestCacheHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector adds bookkeeping allocations; counts are not meaningful")
	}
	kb := SampleKB()
	ex, err := NewExplainer(kb, Options{Measure: "size", TopK: 5, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := samplePairs[0]
	if _, err := ex.Explain(p.Start, p.End); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ex.Explain(p.Start, p.End); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("cache-hit Explain allocates %.0f times per op; want ≤ 2", allocs)
	}
}

// TestQueryKeyFormat holds the key to the bytes fmt used to build: the
// cache keys on them, and the length prefixes are what keeps names
// holding the separators apart.
func TestQueryKeyFormat(t *testing.T) {
	names := []string{"a", "brad_pitt", "1:a", "a|x1|t2", "x:y|z", strings.Repeat("n", 100), ""}
	budgets := []Budget{{}, {MaxExpansions: 7}, {Timeout: 1500 * time.Millisecond}, {MaxExpansions: 400, Timeout: time.Nanosecond}}
	seen := map[string]string{}
	for _, start := range names {
		for _, end := range names {
			for _, b := range budgets {
				want := fmt.Sprintf("%d:%s%d:%s", len(start), start, len(end), end)
				if b.active() {
					want += fmt.Sprintf("|x%d|t%d", b.MaxExpansions, int64(b.Timeout))
				}
				got := queryKey(Request{Pair: Pair{Start: start, End: end}, Budget: b})
				if got != want {
					t.Errorf("queryKey(%q, %q, %+v) = %q, want %q", start, end, b, got, want)
				}
				q := fmt.Sprintf("(%q, %q, %+v)", start, end, b)
				if prev, dup := seen[got]; dup {
					t.Errorf("queries %s and %s share the key %q", prev, q, got)
				}
				seen[got] = q
			}
		}
	}
}

// TestResultCacheCapacityExact fills caches far past their capacity and
// requires them to hold no more than it: the shard caps of a sharded
// cache must sum to the capacity, not to 16 rounded-up shares of it.
func TestResultCacheCapacityExact(t *testing.T) {
	res := &Result{}
	for _, capacity := range []int{8, 64, 100, 500} {
		c := newResultCache(capacity)
		for i := 0; i < 20000; i++ {
			c.put(fmt.Sprintf("key-%d", i), res)
		}
		if n := c.len(); n > capacity {
			t.Errorf("cache of capacity %d holds %d entries", capacity, n)
		}
		if got := uint64(20000 - c.len()); c.evictions.Load() != got {
			t.Errorf("cache of capacity %d: %d evictions for %d entries dropped", capacity, c.evictions.Load(), got)
		}
	}
}
