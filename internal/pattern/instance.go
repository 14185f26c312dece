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
//
// An Explanation is plain data, and nothing on it is derived or cached:
// the merger builds the per-variable binding lists its emptiness test
// and join index need in its own pooled storage, for one union run (see
// Merger). So any explanation, a bare literal included, merges the same
// way, and concurrent merges may share one (TestMergeSharedExplanations
// runs two under -race).
type Explanation struct {
	P         *Pattern
	Instances []Instance
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
	return &Explanation{P: p, Instances: out}
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
// and target conventions; tests use it to assert correctness of
// instance propagation.
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
