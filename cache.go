package rex

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is a synchronised LRU cache of rendered explanation
// results. Each cache belongs to exactly one Explainer, so entries are
// keyed by (entity pair, query budget) alone (see queryKey);
// the options dimension is the cache identity itself. Hit, miss and
// eviction counts are tracked for the /stats endpoint of cmd/rexserve
// and for capacity tuning.
//
// Large caches are split into power-of-two lock shards selected by a
// hash of the key, so concurrent BatchExplain workers and serving
// traffic stop serialising on one mutex. Each shard is an independent
// LRU over its slice of the capacity; the hit/miss/eviction counters
// are process-wide atomics shared by all shards, so CacheStats reads
// are never torn. Small caches (below cacheShardThreshold entries) stay
// single-sharded and keep exact global LRU order.
type resultCache struct {
	capacity  int
	shardMask uint64
	shards    []cacheShard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// cacheShard is one lock shard: an independent LRU over its share of
// the capacity.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

const (
	// cacheShardCount is the shard fan-out for large caches; power of
	// two so selection is a mask.
	cacheShardCount = 16
	// cacheShardThreshold is the capacity below which the cache stays
	// single-sharded: splitting a tiny capacity across 16 LRUs would
	// distort eviction order for no contention win.
	cacheShardThreshold = 64
)

// cacheEntry is one LRU element: the key (needed for eviction) and the
// shared, read-only result.
type cacheEntry struct {
	key string
	res *Result
}

func newResultCache(capacity int) *resultCache {
	n := 1
	if capacity >= cacheShardThreshold {
		n = cacheShardCount
	}
	c := &resultCache{capacity: capacity, shardMask: uint64(n - 1), shards: make([]cacheShard, n)}
	// The first capacity%n shards take one slot more than the rest, so
	// the shard caps sum to the capacity exactly.
	for i := range c.shards {
		per := capacity / n
		if i < capacity%n {
			per++
		}
		c.shards[i] = cacheShard{cap: per, ll: list.New(), items: make(map[string]*list.Element, per)}
	}
	return c
}

// shard selects the lock shard for a key by FNV-1a hash.
func (c *resultCache) shard(key string) *cacheShard {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 0x100000001b3
	}
	return &c.shards[h&c.shardMask]
}

// get returns the cached result for key, promoting it to most recently
// used in its shard, and records the hit or miss. The element value is
// read under the shard lock: put may rewrite el.Value when refreshing
// an existing key.
func (c *resultCache) get(key string) (*Result, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	var res *Result
	if ok {
		s.ll.MoveToFront(el)
		res = el.Value.(cacheEntry).res
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return res, true
}

// put stores a result, evicting the shard's least recently used entry
// when the shard is full. Storing an existing key refreshes its value
// and recency.
func (c *resultCache) put(key string, res *Result) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value = cacheEntry{key: key, res: res}
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(cacheEntry{key: key, res: res})
	for s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(cacheEntry).key)
		c.evictions.Add(1)
	}
}

// len reports the number of cached entries across all shards.
func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// CacheStats reports result-cache effectiveness counters.
type CacheStats struct {
	// Hits and Misses count cache lookups since construction. Misses
	// includes lookups for results that were never stored (e.g. queries
	// that errored). Both are process-wide atomics aggregated across
	// cache shards, so a snapshot is never torn.
	Hits, Misses uint64
	// Evictions counts entries displaced by the LRU capacity bound — the
	// signal that Options.CacheSize is too small for the working set.
	// Refreshing an existing key is not an eviction.
	Evictions uint64
	// Entries is the current entry count; Capacity the configured
	// maximum. Both are 0 when caching is disabled.
	Entries, Capacity int
}

// CacheStats returns a snapshot of the explainer's result-cache
// counters, all zero when caching is disabled.
func (e *Explainer) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      e.cache.hits.Load(),
		Misses:    e.cache.misses.Load(),
		Evictions: e.cache.evictions.Load(),
		Entries:   e.cache.len(),
		Capacity:  e.cache.capacity,
	}
}
