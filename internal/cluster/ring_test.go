package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

func TestRingOrderDeterministicAndComplete(t *testing.T) {
	r := newRing(5, 0)
	for i := 0; i < 100; i++ {
		key := queryKey(fmt.Sprintf("s%d", i), "e")
		a, b := r.order(key), r.order(key)
		if len(a) != 5 {
			t.Fatalf("order(%q) returned %d replicas, want 5", key, len(a))
		}
		seen := map[int]bool{}
		for j, v := range a {
			if v != b[j] {
				t.Fatalf("order(%q) not deterministic: %v vs %v", key, a, b)
			}
			if seen[v] {
				t.Fatalf("order(%q) repeats replica %d: %v", key, v, a)
			}
			seen[v] = true
		}
	}
}

func TestRingDistributionRoughlyUniform(t *testing.T) {
	const replicas, keys = 3, 30000
	r := newRing(replicas, 0)
	counts := make([]int, replicas)
	for i := 0; i < keys; i++ {
		counts[r.order(fmt.Sprintf("pair-%d", i))[0]]++
	}
	// With 64 vnodes each owner should be within ~2x of fair share;
	// a badly broken hash would send nearly everything to one replica.
	fair := keys / replicas
	for i, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("replica %d owns %d of %d keys (fair %d): distribution skewed %v", i, c, keys, fair, counts)
		}
	}
}

// TestRingOneOwnerPerPair: a pair's /explain requests, GET or POST,
// under every budget_ms, parse to one routing key and so one failover
// chain — a replica answers them all from the pair's one cache entry —
// while the two orders of a pair are two keys.
func TestRingOneOwnerPerPair(t *testing.T) {
	r := newRing(5, 0)
	for i := 0; i < 50; i++ {
		start, end := fmt.Sprintf("s%d", i), "e"
		var chain []int
		for _, ms := range []int{0, 50, 100, 5000} {
			get := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/explain?start=%s&end=%s&budget_ms=%d", start, end, ms), nil)
			body := fmt.Sprintf(`{"start":%q,"end":%q,"budget_ms":%d}`, start, end, ms)
			post := httptest.NewRequest(http.MethodPost, "/explain", strings.NewReader(body))
			for _, req := range []struct {
				r    *http.Request
				body []byte
			}{{get, nil}, {post, []byte(body)}} {
				pq, err := parseExplain(req.r, req.body)
				if err != nil {
					t.Fatal(err)
				}
				got := r.order(queryKey(pq.start, pq.end))
				if chain == nil {
					chain = got
				} else if !slices.Equal(got, chain) {
					t.Fatalf("%s %s/%s at budget_ms=%d routes to %v, the pair's chain is %v", req.r.Method, start, end, ms, got, chain)
				}
			}
		}
	}
	if queryKey("a", "b") == queryKey("b", "a") {
		t.Error("the two orders of a pair share a routing key")
	}
}
