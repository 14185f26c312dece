// Package cluster is the replicated serving tier over rexserve
// replicas: a consistent-hash router with generation-aware pinning,
// active health checking, per-replica circuit breakers, retries and
// request hedging. The replicas stay share-nothing — each holds its own
// immutable CSR snapshots — and the router holds only soft state (ring,
// health, breaker, latency), so a router restart loses nothing.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over replica indices. Each replica
// owns vnodes points so ownership stays near-uniform at small replica
// counts, and removing a replica only moves its own keys. The ring is
// immutable after construction — membership changes build a new ring —
// so lookups are lock-free.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // distinct replicas
}

type ringPoint struct {
	hash    uint64
	replica int
}

// defaultVNodes balances uniformity against preference-walk cost. At
// 64 points per replica the max/min key-share spread stays under ~20%
// for 2–16 replicas, which is well inside what breakers and hedging
// absorb.
const defaultVNodes = 64

func newRing(replicas, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &ring{points: make([]ringPoint, 0, replicas*vnodes), n: replicas}
	for i := 0; i < replicas; i++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%d|%d", i, v)), replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finaliser. FNV-1a alone avalanches poorly on
// short keys (vnode labels, short entity names), which shows up directly
// as skewed arc ownership; the finaliser spreads every input bit across
// the full 64-bit ordering the ring depends on.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// order returns every replica index in the key's preference order: the
// owner (first point clockwise of the key's hash), then each successor
// the first time it appears. order(key)[0] is stable under the ring's
// lifetime — that is what makes per-pair result caches on the replicas
// effective — and order(key)[1:] is the deterministic failover chain.
func (r *ring) order(key string) []int {
	out := make([]int, 0, r.n)
	if len(r.points) == 0 {
		return out
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make([]bool, r.n)
	for i := 0; len(out) < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

// queryKey is the routing key of one pair's queries. The budget is not
// part of it because the replicas' result caches key on the pair alone:
// a budgeted query is answered from, and stores, the unbudgeted entry,
// so every budget of a pair belongs with one owner.
func queryKey(start, end string) string {
	return start + "\x00" + end
}
