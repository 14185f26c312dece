package pattern

import (
	"cmp"
	"fmt"
	"math/bits"
	"sync"

	"rex/internal/kb"
)

// Key is a compact 64-bit canonical pattern key: the FNV-1a hash of the
// canonical encoding (see CanonicalKey). Two patterns have equal Keys iff
// they are isomorphic with targets pinned, which makes Key a drop-in
// replacement for the canonical string in de-duplication maps at a
// fraction of the hashing and memory cost. Because the hash is a pure
// function of the canonical encoding, Keys are stable across runs,
// goroutines and worker counts — they are safe to use anywhere the
// canonical string was.
//
// A 64-bit hash can in principle collide; a process-wide intern table
// records every (Key, encoding) pair ever issued and fails loudly on a
// collision instead of silently conflating two distinct patterns. With
// FNV-1a's distribution a collision needs on the order of 2^32 distinct
// patterns in one process (the birthday bound), far beyond the pattern
// diversity any knowledge-base schema produces; the check turns the
// astronomically unlikely event into a crash rather than a wrong answer.
type Key uint64

// internTable is the process-wide collision checker. It grows with the
// number of distinct pattern shapes seen by the process — bounded by
// schema diversity (label combinations × structures within MaxVars), not
// by query volume, so it stays small for any real knowledge base.
var internTable = struct {
	sync.RWMutex
	m map[Key]string
}{m: make(map[Key]string, 256)}

// internKey issues the Key for a canonical encoding, registering it in
// the collision-check table.
func internKey(canon string) Key {
	k, _ := internKeyBytes([]byte(canon))
	return k
}

// internKeyBytes issues the Key for a canonical encoding given as bytes
// and returns the interned string form. In the steady state — an
// encoding already registered — it allocates nothing: the hash runs over
// the byte slice and the comparison against the stored string converts
// without copying. Only the first sighting of a new pattern shape
// allocates (the retained string).
func internKeyBytes(canon []byte) (Key, string) {
	k := Key(fnv64Bytes(canon))
	internTable.RLock()
	prev, ok := internTable.m[k]
	internTable.RUnlock()
	if !ok {
		internTable.Lock()
		if prev2, ok2 := internTable.m[k]; ok2 {
			prev, ok = prev2, true
		} else {
			prev = string(canon)
			internTable.m[k] = prev
		}
		internTable.Unlock()
	}
	if ok && prev != string(canon) {
		panic(fmt.Sprintf("pattern: 64-bit canonical key collision between %q and %q", prev, canon))
	}
	return k, prev
}

// fnv64 is the FNV-1a hash of the canonical encoding. The rank layer's
// deterministic tie-breaking relies on Key being exactly this hash (it
// historically hashed the canonical string itself), so changing the
// algorithm would reorder tied explanations.
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// fnv64Bytes is fnv64 over a byte slice, so hashing a scratch-buffer
// encoding needs no string conversion.
func fnv64Bytes(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 0x100000001b3
	}
	return h
}

// Key returns the interned 64-bit canonical key. Equal keys ⇔ isomorphic
// patterns (targets pinned). Computed once and cached, like CanonicalKey
// (which computes both in one pooled pass).
func (p *Pattern) Key() Key {
	if !p.hasKey {
		p.CanonicalKey()
	}
	return p.key
}

// InstanceKey is the compact, comparable identity of an instance: the
// variable count and the bound entity IDs. It replaces the legacy packed
// string key in de-duplication maps and join indexes — same identity
// semantics, zero allocation.
type InstanceKey struct {
	n   int8
	ids [MaxVars]kb.NodeID
}

// Key packs the assignment into a comparable value usable as a map key
// for de-duplication. Instances are bounded by MaxVars variables.
func (in Instance) Key() InstanceKey {
	if len(in) > MaxVars {
		panic(fmt.Sprintf("pattern: instance with %d variables exceeds MaxVars=%d", len(in), MaxVars))
	}
	var k InstanceKey
	k.n = int8(len(in))
	copy(k.ids[:], in)
	return k
}

// Compare orders keys exactly as the legacy byte-packed string keys did
// (per-ID little-endian byte order, shorter prefix first), so rendered
// instance order is byte-identical to the string era. It returns -1, 0
// or +1, as slices.SortFunc expects.
func (k InstanceKey) Compare(o InstanceKey) int {
	for i := range min(k.n, o.n) {
		if k.ids[i] != o.ids[i] {
			return cmp.Compare(bits.ReverseBytes32(uint32(k.ids[i])), bits.ReverseBytes32(uint32(o.ids[i])))
		}
	}
	return cmp.Compare(k.n, o.n)
}
