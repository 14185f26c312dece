package pattern

import "rex/internal/kb"

// DropBinding is the emptiness mask's mutation: it makes m's current run
// index ex as if no instance bound x to variable v — x leaves v's list of
// distinct bindings, and its instances leave v's join groups. It builds
// ex's index first if the run has none.
func DropBinding(m *Merger, ex *Explanation, v VarID, x kb.NodeID) {
	ci := m.columns(ex) + int32(v) - 2
	c := m.grouped(ex, ci, v)
	d := column{off: int32(len(m.vals)), soff: int32(len(m.starts)), poff: int32(len(m.perm))}
	for k, y := range m.distinct(c) {
		if y == x {
			continue
		}
		m.vals = append(m.vals, y)
		m.starts = append(m.starts, int32(len(m.perm))-d.poff)
		m.perm = append(m.perm, m.group(c, k)...)
	}
	d.nv = int32(len(m.vals)) - d.off
	d.n = int32(len(m.perm)) - d.poff
	m.cols[ci] = d
}
