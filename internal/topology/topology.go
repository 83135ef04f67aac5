// Package topology models the physical structure of the on-chip network:
// node placement, ports, inter-router links, and which links have died
// (FailLink, called by the network's hard-fault controller as its
// mortality timeline fires). New builds a neighbor table and a per-node
// live-port mask once, so Neighbor and LinkUp are table loads. The
// paper's evaluation platform is an 8x8 2-D mesh (§2.2); a torus is
// provided as an extension because the tornado traffic pattern and
// several cited routing algorithms originate there.
package topology

import (
	"fmt"
	"strings"

	"ftnoc/internal/flit"
)

// Port identifies one of a router's physical channels. The paper's generic
// router has 5 PCs: the four mesh directions plus the local
// processing-element port (§4.1).
type Port uint8

// Router ports. Local is the PE-to-router channel.
const (
	Local Port = iota
	North
	East
	South
	West
	// NumPorts is the number of physical channels per router.
	NumPorts
)

// String implements fmt.Stringer.
func (p Port) String() string {
	switch p {
	case Local:
		return "L"
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	default:
		return fmt.Sprintf("Port(%d)", uint8(p))
	}
}

// Valid reports whether p is a real port.
func (p Port) Valid() bool { return p < NumPorts }

// Opposite returns the port on the neighboring router that faces p.
// Local has no opposite and panics.
func (p Port) Opposite() Port {
	switch p {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		panic(fmt.Sprintf("topology: port %v has no opposite", p))
	}
}

// Kind selects the network shape.
type Kind uint8

// Supported topologies.
const (
	Mesh Kind = iota + 1
	Torus
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Mesh:
		return "mesh"
	case Torus:
		return "torus"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a topology name ("mesh" or "torus", case-insensitive)
// to its Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "mesh":
		return Mesh, nil
	case "torus":
		return Torus, nil
	default:
		return 0, fmt.Errorf("unknown topology %q (want mesh or torus)", s)
	}
}

// Coord is a node's (x, y) position. x grows eastward, y grows southward,
// node 0 at the north-west corner — the usual NoC floorplan convention.
type Coord struct {
	X, Y int
}

// LinkID names a directed inter-router link: the flit leaves node From
// through port Dir.
type LinkID struct {
	From flit.NodeID
	Dir  Port
}

// Topology describes a W x H grid of routers and which inter-router links
// exist (and still function, given hard faults).
type Topology struct {
	kind Kind
	w, h int
	// nbr[id*NumPorts+p] is the node reached by leaving id through p, -1
	// where no link exists (Local, mesh edges). live[id] has bit p set
	// while that link exists and is not hard-faulted.
	nbr  []int32
	live []uint8
}

// New creates a W x H topology of the given kind. Width and height must be
// at least 1; the paper's platform is New(Mesh, 8, 8).
func New(kind Kind, w, h int) *Topology {
	if w < 1 || h < 1 {
		panic("topology: dimensions must be >= 1")
	}
	if kind != Mesh && kind != Torus {
		panic("topology: unknown kind")
	}
	t := &Topology{kind: kind, w: w, h: h, nbr: make([]int32, w*h*int(NumPorts)), live: make([]uint8, w*h)}
	for i := range t.nbr {
		id, p := flit.NodeID(i/int(NumPorts)), Port(i%int(NumPorts))
		if t.nbr[i] = t.step(id, p); t.nbr[i] >= 0 {
			t.live[id] |= 1 << p
		}
	}
	return t
}

// Kind returns the topology shape.
func (t *Topology) Kind() Kind { return t.kind }

// Width returns the number of columns.
func (t *Topology) Width() int { return t.w }

// Height returns the number of rows.
func (t *Topology) Height() int { return t.h }

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.w * t.h }

// CoordOf converts a node ID to grid coordinates.
func (t *Topology) CoordOf(id flit.NodeID) Coord {
	n := int(id)
	return Coord{X: n % t.w, Y: n / t.w}
}

// IDOf converts grid coordinates to a node ID. Coordinates wrap in a
// torus; out-of-range mesh coordinates panic.
func (t *Topology) IDOf(c Coord) flit.NodeID {
	if t.kind == Torus {
		c.X = ((c.X % t.w) + t.w) % t.w
		c.Y = ((c.Y % t.h) + t.h) % t.h
	}
	if c.X < 0 || c.X >= t.w || c.Y < 0 || c.Y >= t.h {
		panic(fmt.Sprintf("topology: coordinate %+v out of %dx%d mesh", c, t.w, t.h))
	}
	return flit.NodeID(c.Y*t.w + c.X)
}

// step computes the neighbor table entry for (id, dir) from coordinates:
// the node reached, or -1 where the geometry has no link.
func (t *Topology) step(id flit.NodeID, dir Port) int32 {
	c := t.CoordOf(id)
	switch dir {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return -1
	}
	if t.kind == Mesh && (c.X < 0 || c.X >= t.w || c.Y < 0 || c.Y >= t.h) {
		return -1
	}
	return int32(t.IDOf(c))
}

// Neighbor returns the node reached by leaving id through dir, and whether
// such a link physically exists (mesh edges have none; torus wraps).
// Hard faults do not affect Neighbor; see LinkUp.
func (t *Topology) Neighbor(id flit.NodeID, dir Port) (flit.NodeID, bool) {
	if int(id) >= len(t.live) || dir >= NumPorts {
		return 0, false
	}
	if n := t.nbr[int(id)*int(NumPorts)+int(dir)]; n >= 0 {
		return flit.NodeID(n), true
	}
	return 0, false
}

// FailLink marks the directed link leaving from through dir as permanently
// down (a hard fault, §3.2). Failing a non-existent link panics.
func (t *Topology) FailLink(from flit.NodeID, dir Port) {
	if _, ok := t.Neighbor(from, dir); !ok {
		panic(fmt.Sprintf("topology: no link %v from node %d", dir, from))
	}
	t.live[from] &^= 1 << dir
}

// LinkUp reports whether the directed link leaving from through dir both
// exists and is not hard-faulted.
func (t *Topology) LinkUp(from flit.NodeID, dir Port) bool {
	return int(from) < len(t.live) && t.live[from]>>dir&1 != 0
}

// Links enumerates every directed inter-router link that physically
// exists, including hard-faulted ones, node-major in N, E, S, W order.
func (t *Topology) Links() []LinkID {
	ls := make([]LinkID, 0, t.Nodes()*4)
	for n := 0; n < t.Nodes(); n++ {
		for _, d := range []Port{North, East, South, West} {
			if _, ok := t.Neighbor(flit.NodeID(n), d); ok {
				ls = append(ls, LinkID{From: flit.NodeID(n), Dir: d})
			}
		}
	}
	return ls
}

// HopDistance returns the minimal hop count between two nodes under the
// topology's geometry (Manhattan for mesh, wrap-aware for torus).
func (t *Topology) HopDistance(a, b flit.NodeID) int {
	ca, cb := t.CoordOf(a), t.CoordOf(b)
	dx := abs(ca.X - cb.X)
	dy := abs(ca.Y - cb.Y)
	if t.kind == Torus {
		if w := t.w - dx; w < dx {
			dx = w
		}
		if h := t.h - dy; h < dy {
			dy = h
		}
	}
	return dx + dy
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
