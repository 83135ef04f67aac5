// Package faultmap is a compact, monotone directory of hard faults: which
// directed links and routers have permanently died, with an in-place
// merge and a canonical wire form. The simulator does not use it — the
// topology's live-link mask is its one record of hard faults — and the
// package stays only because the bench's faultmap unit rows time New,
// MarkLinkDead, MarkRouterDead, MergeFrom and AppendEncode. It goes with
// those rows.
//
// A Map is monotone: links and routers only ever die, they never come
// back, so merging views never loses information.
package faultmap

import (
	"fmt"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// Map is one observer's view of the network's hard faults. The zero
// value is unusable; use New.
type Map struct {
	nodes int
	// dirs[n] holds one bit per outgoing mesh direction of node n
	// (bit Port-1 for North..West): set means the directed link is dead.
	dirs []uint8
	// dead[n] reports node n's router has died.
	dead []bool
	// version counts state changes, so a holder can tell "this view
	// learned something" without diffing the bitmaps.
	version uint64
	// deadLinks / deadRouters are maintained counts of set entries.
	deadLinks, deadRouters int
}

// New returns an empty (all-alive) map over the given node count.
func New(nodes int) *Map {
	if nodes <= 0 {
		panic("faultmap: node count must be positive")
	}
	return &Map{nodes: nodes, dirs: make([]uint8, nodes), dead: make([]bool, nodes)}
}

// Nodes returns the node count the map covers.
func (m *Map) Nodes() int { return m.nodes }

// Version returns the map's change counter; it increases on every
// MarkLinkDead / MarkRouterDead / MergeFrom that learned something new.
func (m *Map) Version() uint64 { return m.version }

// DeadLinks returns the number of directed links marked dead.
func (m *Map) DeadLinks() int { return m.deadLinks }

// DeadRouters returns the number of routers marked dead.
func (m *Map) DeadRouters() int { return m.deadRouters }

// dirBit maps a mesh direction to its bitmask, panicking on Local (the
// PE link has no independent hard-fault identity: it dies with its
// router) and out-of-range ports.
func dirBit(dir topology.Port) uint8 {
	if dir < topology.North || dir > topology.West {
		panic(fmt.Sprintf("faultmap: port %v is not a mesh direction", dir))
	}
	return 1 << (uint8(dir) - 1)
}

// MarkLinkDead records the death of the directed link (from, dir),
// reporting whether the map learned something new.
func (m *Map) MarkLinkDead(from flit.NodeID, dir topology.Port) bool {
	bit := dirBit(dir)
	if m.dirs[from]&bit != 0 {
		return false
	}
	m.dirs[from] |= bit
	m.deadLinks++
	m.version++
	return true
}

// MarkRouterDead records the death of a router, reporting whether the
// map learned something new.
func (m *Map) MarkRouterDead(n flit.NodeID) bool {
	if m.dead[n] {
		return false
	}
	m.dead[n] = true
	m.deadRouters++
	m.version++
	return true
}

// LinkDead reports whether the directed link (from, dir) is marked
// dead. Local is never dead as a link (router death covers it);
// out-of-mesh directions are not links at all.
func (m *Map) LinkDead(from flit.NodeID, dir topology.Port) bool {
	if dir < topology.North || dir > topology.West {
		return false
	}
	return m.dirs[from]&(1<<(uint8(dir)-1)) != 0
}

// RouterDead reports whether node n's router is marked dead.
func (m *Map) RouterDead(n flit.NodeID) bool { return m.dead[n] }

// MergeFrom folds every fault in src into m, reporting whether m
// learned anything.
func (m *Map) MergeFrom(src *Map) bool {
	if src.nodes != m.nodes {
		panic("faultmap: merging maps of different sizes")
	}
	changed := false
	for n := 0; n < m.nodes; n++ {
		if add := src.dirs[n] &^ m.dirs[n]; add != 0 {
			m.dirs[n] |= add
			m.deadLinks += popcount4(add)
			changed = true
		}
		if src.dead[n] && !m.dead[n] {
			m.dead[n] = true
			m.deadRouters++
			changed = true
		}
	}
	if changed {
		m.version++
	}
	return changed
}

// Equal reports whether two maps record the same faults (version
// counters are histories, not state, and do not participate).
func (m *Map) Equal(o *Map) bool {
	if m.nodes != o.nodes {
		return false
	}
	for n := 0; n < m.nodes; n++ {
		if m.dirs[n] != o.dirs[n] || m.dead[n] != o.dead[n] {
			return false
		}
	}
	return true
}

// countNonzero counts the nodes with at least one dead outgoing link.
func countNonzero(dirs []uint8) int {
	n := 0
	for _, d := range dirs {
		if d != 0 {
			n++
		}
	}
	return n
}

// popcount4 counts the set bits of a 4-bit direction mask.
func popcount4(b uint8) int {
	b = b&0x5 + (b>>1)&0x5
	return int(b&0x3 + (b>>2)&0x3)
}

// Wire form. The encoding is canonical (one byte string per fault
// state) and compact: a two-byte magic, uvarint node count and version,
// then the dead-link table as (delta-encoded node, direction mask)
// pairs and the dead-router set as delta-encoded node ids.
const (
	magic0 = 0xF7 // "fault"
	magic1 = 0x3A // "map", loosely
)

// AppendEncode appends the map's wire form to dst and returns the
// extended slice.
func (m *Map) AppendEncode(dst []byte) []byte {
	dst = append(dst, magic0, magic1)
	dst = appendUvarint(dst, uint64(m.nodes))
	dst = appendUvarint(dst, m.version)
	dst = appendUvarint(dst, uint64(countNonzero(m.dirs)))
	prev := uint64(0)
	for n := 0; n < m.nodes; n++ {
		if m.dirs[n] == 0 {
			continue
		}
		dst = appendUvarint(dst, uint64(n)-prev)
		dst = append(dst, m.dirs[n])
		prev = uint64(n)
	}
	dst = appendUvarint(dst, uint64(m.deadRouters))
	prev = 0
	for n := 0; n < m.nodes; n++ {
		if !m.dead[n] {
			continue
		}
		dst = appendUvarint(dst, uint64(n)-prev)
		prev = uint64(n)
	}
	return dst
}

// appendUvarint appends v in LEB128 form.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}
