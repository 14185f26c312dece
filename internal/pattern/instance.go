package pattern

import (
	"fmt"

	"rex/internal/kb"
)

// Instance is an explanation instance (Definition 2): the assignment of a
// knowledge-base entity to each pattern variable. inst[0] is always the
// start target, inst[1] the end target. REX instances are injective
// embeddings — distinct variables bind distinct entities — which
// subsumes the definition's requirement that non-target variables avoid
// the target entities (see the match package for why).
type Instance []kb.NodeID

// Clone returns a copy of the instance.
func (in Instance) Clone() Instance {
	out := make(Instance, len(in))
	copy(out, in)
	return out
}

// Explanation is a relationship explanation: a pattern together with its
// non-empty instance set for a specific entity pair (the pair is implicit
// in inst[0] and inst[1] of every instance).
type Explanation struct {
	P         *Pattern
	Instances []Instance

	// sigs[v] is the binding signature of variable v over Instances,
	// valid once signed is set (see Sign). An explanation assembled as a
	// bare literal stays unsigned and merges without the filter.
	sigs   [MaxVars]bindingSig
	signed bool
}

// sigBitsLog2 sets the width of a binding signature: 2^8 = 256 bits
// (sigWords 64-bit words) per variable, 384 B per explanation. Measured
// on the union of the benchmark's 33 medium pairs, where 87 302 of
// 88 911 joins are empty: 64 bits prove 98.2 % of the empty ones empty
// (union 40 ms a pass, 250 ms unfiltered), 128 bits 99.0 % (27 ms), 256
// bits 99.3 % (22 ms), 512 bits 99.6 % (24 ms) — past 256 the words
// compared per rejected mapping outweigh the joins still saved.
const (
	sigBitsLog2 = 8
	sigWords    = 1 << (sigBitsLog2 - 6)
)

// bindingSig is a one-hash Bloom filter over the node IDs bound to one
// variable across an explanation's instances. Two instance sets can
// join on a matched variable pair only if some node is bound on both
// sides, and a shared node sets the same bit in both signatures; so
// disjoint signatures prove the join empty, while overlapping ones
// (saturation, hash collisions) prove nothing and the join runs.
type bindingSig [sigWords]uint64

func (s *bindingSig) add(id kb.NodeID) {
	// Fibonacci hashing: the top bits of the product spread the dense,
	// sequential IDs of one entity type over the whole signature.
	h := uint32(id) * 0x9E3779B1 >> (32 - sigBitsLog2)
	s[h>>6] |= 1 << (h & 63)
}

func (s *bindingSig) disjoint(o *bindingSig) bool {
	var and uint64
	for w := range s {
		and |= s[w] & o[w]
	}
	return and == 0
}

// Sign computes the per-variable binding signatures from Instances. The
// builders that fill Instances themselves call it once when the set is
// complete; removing or reordering instances afterwards keeps the
// signatures valid (they only over-approximate), adding one does not.
func (e *Explanation) Sign() {
	e.sigs = [MaxVars]bindingSig{}
	for _, in := range e.Instances {
		for v, id := range in {
			e.sigs[v].add(id)
		}
	}
	e.signed = true
}

// NewExplanation bundles a pattern with instances, de-duplicating the
// instance list.
func NewExplanation(p *Pattern, instances []Instance) *Explanation {
	seen := make(map[InstanceKey]struct{}, len(instances))
	out := instances[:0:0]
	for _, in := range instances {
		k := in.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, in)
	}
	ex := &Explanation{P: p, Instances: out}
	ex.Sign()
	return ex
}

// Count reports the number of distinct instances (the paper's Mcount).
func (e *Explanation) Count() int { return len(e.Instances) }

// UniqueAssignments reports |uniq(v)|: the number of distinct entities
// assigned to variable v across all instances (Section 4.2).
func (e *Explanation) UniqueAssignments(v VarID) int {
	seen := make(map[kb.NodeID]struct{})
	for _, in := range e.Instances {
		seen[in[v]] = struct{}{}
	}
	return len(seen)
}

// Monocount computes the paper's anti-monotonic aggregate: the minimum
// over all non-target variables of the number of distinct assignments.
// When the pattern has no non-target variable (a direct edge between the
// targets) the paper overrides the value to 1.
func (e *Explanation) Monocount() int {
	if e.P.NumVars() == 2 {
		return 1
	}
	min := -1
	for v := VarID(2); int(v) < e.P.NumVars(); v++ {
		u := e.UniqueAssignments(v)
		if min < 0 || u < min {
			min = u
		}
	}
	if min < 0 {
		return 1
	}
	return min
}

// Validate checks every instance against the pattern's edge constraints
// and target conventions; it is used by tests and the NaiveEnum baseline
// to assert correctness of instance propagation.
func (e *Explanation) Validate(g *kb.Graph, start, end kb.NodeID) error {
	for idx, in := range e.Instances {
		if len(in) != e.P.NumVars() {
			return fmt.Errorf("instance %d: %d assignments for %d variables", idx, len(in), e.P.NumVars())
		}
		if in[Start] != start || in[End] != end {
			return fmt.Errorf("instance %d: targets (%d,%d) != (%d,%d)", idx, in[Start], in[End], start, end)
		}
		for v := 2; v < len(in); v++ {
			if in[v] == start || in[v] == end {
				return fmt.Errorf("instance %d: non-target variable %d maps to a target entity", idx, v)
			}
		}
		if !injective(in) {
			return fmt.Errorf("instance %d: bindings are not pairwise distinct", idx)
		}
		for _, pe := range e.P.Edges() {
			u, v := in[pe.U], in[pe.V]
			if g.LabelDirected(pe.Label) {
				if !g.HasEdge(u, v, pe.Label) {
					return fmt.Errorf("instance %d: missing edge %s→%s [%s]",
						idx, g.NodeName(u), g.NodeName(v), g.LabelName(pe.Label))
				}
			} else if !g.HasEdge(u, v, pe.Label) {
				return fmt.Errorf("instance %d: missing undirected edge %s—%s [%s]",
					idx, g.NodeName(u), g.NodeName(v), g.LabelName(pe.Label))
			}
		}
	}
	return nil
}
