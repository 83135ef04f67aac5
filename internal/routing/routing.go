// Package routing implements the routing functions evaluated in the
// paper: deterministic dimension-order XY (the "DT" series of Figs. 8–9)
// and minimal adaptive routing (the "AD" series), plus west-first and
// odd-even turn-model algorithms as extensions. A routing function maps
// (current node, destination) to the set of output ports a header flit may
// legally request; the VC allocator arbitrates among the candidates.
package routing

import (
	"fmt"
	"slices"
	"strings"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// Algorithm names a routing function.
type Algorithm uint8

// Supported algorithms.
const (
	// XY is deterministic dimension-order routing: exhaust the X offset,
	// then the Y offset. Deadlock-free on a mesh. The paper's "DT".
	XY Algorithm = iota + 1
	// MinimalAdaptive returns every productive direction, giving maximal
	// minimal-path adaptivity. Not deadlock-free by itself — which is the
	// point: the paper's recovery scheme (§3.2), not avoidance, handles
	// deadlock. The paper's "AD".
	MinimalAdaptive
	// WestFirst is a turn-model algorithm: all west hops are taken first,
	// after which the packet may route adaptively among N/E/S. Deadlock-
	// free on a mesh with bounded adaptivity.
	WestFirst
	// OddEven is the odd-even turn model (referenced by the paper as a
	// fault-tolerant deterministic substrate [26]): it restricts where
	// east-north/east-south and north-west/south-west turns may occur
	// based on column parity.
	OddEven
	// FaultAdaptive is up*/down* routing over the surviving topology: a
	// BFS spanning orientation of the live graph restricts every path to
	// zero or more "up" hops followed by zero or more "down" hops, which
	// is deadlock-free on any connected fault pattern and delivers
	// between every mutually reachable pair. Its tables are rebuilt by
	// the reconfiguration controller at every hard-fault boundary; a
	// destination with no legal path yields an empty candidate set, which
	// the network converts into an undeliverable verdict instead of a
	// hang.
	FaultAdaptive
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case XY:
		return "xy"
	case MinimalAdaptive:
		return "adaptive"
	case WestFirst:
		return "west-first"
	case OddEven:
		return "odd-even"
	case FaultAdaptive:
		return "fault-adaptive"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Parse maps a routing name to its Algorithm, case-insensitively. It
// accepts both the CLI short forms (xy/dt, adaptive/ad) and the String
// forms (west-first, odd-even), with and without the hyphen.
func Parse(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "xy", "dt":
		return XY, nil
	case "adaptive", "ad":
		return MinimalAdaptive, nil
	case "west-first", "westfirst":
		return WestFirst, nil
	case "odd-even", "oddeven":
		return OddEven, nil
	case "fault-adaptive", "faultadaptive", "fa", "updown", "up-down":
		return FaultAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown routing %q (want xy, adaptive, westfirst, oddeven or fault-adaptive)", s)
	}
}

// Adaptive reports whether the algorithm may return more than one
// candidate port.
func (a Algorithm) Adaptive() bool { return a != XY }

// Func computes the legal output ports for a packet at cur heading for
// dst. Implementations must return Local exactly when cur == dst, and must
// never return a port without a physical link. Candidate order expresses
// preference; the allocator tries earlier ports first. The returned slice
// is shared and read-only (see portList): callers may keep it but must
// not write through it.
type Func interface {
	Route(cur, dst flit.NodeID) []topology.Port
	Algorithm() Algorithm
}

// New returns the routing function for algorithm a over topo.
func New(a Algorithm, topo *topology.Topology) Func { return NewIn(nil, a, topo) }

// NewIn is New with the fault-adaptive function's tables taken from s
// (sim.Make); the deterministic functions hold none.
func NewIn(s *sim.Slabs, a Algorithm, topo *topology.Topology) Func {
	switch a {
	case XY:
		return xyFunc{topo}
	case MinimalAdaptive:
		return adaptiveFunc{topo}
	case WestFirst:
		return westFirstFunc{topo}
	case OddEven:
		return oddEvenFunc{topo}
	case FaultAdaptive:
		return newFaultAdaptiveFunc(s, topo)
	default:
		panic("routing: unknown algorithm")
	}
}

// noPort is portList's "no candidate in this position".
const noPort = topology.NumPorts

// portLists interns every ordered candidate list of up to two ports, so
// the routing functions — which run on routers' hot paths, once per
// memo miss — return a shared slice instead of allocating one.
// portLists[a][b] is {a, b} with noPort positions left out. Each list's
// capacity equals its length, so a caller that appends gets a copy.
var portLists = func() (t [noPort + 1][noPort + 1][]topology.Port) {
	for a := topology.Port(0); a <= noPort; a++ {
		for b := topology.Port(0); b <= noPort; b++ {
			var l []topology.Port
			if a != noPort {
				l = append(l, a)
			}
			if b != noPort {
				l = append(l, b)
			}
			t[a][b] = slices.Clip(l)
		}
	}
	return t
}()

// portList returns the shared read-only candidate list {a, b}; either
// may be noPort.
func portList(a, b topology.Port) []topology.Port { return portLists[a][b] }

// toward maps a signed offset to the port that reduces it: pos for a
// positive offset, neg for a negative one, noPort for zero.
func toward(d int, pos, neg topology.Port) topology.Port {
	switch {
	case d > 0:
		return pos
	case d < 0:
		return neg
	default:
		return noPort
	}
}

// offsets returns the signed coordinate deltas from cur to dst, taking the
// shortest way around in a torus.
func offsets(t *topology.Topology, cur, dst flit.NodeID) (dx, dy int) {
	cc, dc := t.CoordOf(cur), t.CoordOf(dst)
	dx = dc.X - cc.X
	dy = dc.Y - cc.Y
	if t.Kind() == topology.Torus {
		if dx > t.Width()/2 {
			dx -= t.Width()
		} else if dx < -t.Width()/2 {
			dx += t.Width()
		}
		if dy > t.Height()/2 {
			dy -= t.Height()
		} else if dy < -t.Height()/2 {
			dy += t.Height()
		}
	}
	return dx, dy
}

type xyFunc struct{ t *topology.Topology }

func (f xyFunc) Algorithm() Algorithm { return XY }

func (f xyFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return portList(topology.Local, noPort)
	}
	dx, dy := offsets(f.t, cur, dst)
	if h := toward(dx, topology.East, topology.West); h != noPort {
		return portList(h, noPort)
	}
	if dy > 0 {
		return portList(topology.South, noPort)
	}
	return portList(topology.North, noPort)
}

type adaptiveFunc struct{ t *topology.Topology }

func (f adaptiveFunc) Algorithm() Algorithm { return MinimalAdaptive }

func (f adaptiveFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return portList(topology.Local, noPort)
	}
	dx, dy := offsets(f.t, cur, dst)
	return portList(toward(dx, topology.East, topology.West), toward(dy, topology.South, topology.North))
}

type westFirstFunc struct{ t *topology.Topology }

func (f westFirstFunc) Algorithm() Algorithm { return WestFirst }

func (f westFirstFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return portList(topology.Local, noPort)
	}
	dx, dy := offsets(f.t, cur, dst)
	if dx < 0 {
		// All westward movement first, no adaptivity.
		return portList(topology.West, noPort)
	}
	return portList(toward(dx, topology.East, noPort), toward(dy, topology.South, topology.North))
}

type oddEvenFunc struct{ t *topology.Topology }

func (f oddEvenFunc) Algorithm() Algorithm { return OddEven }

// Route implements the odd-even turn model (Chiu): in even columns a
// packet may not turn from east to north/south; in odd columns it may not
// turn from north/south to west. Restricting to minimal directions and
// applying the column-parity rules yields the classic formulation below.
func (f oddEvenFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return portList(topology.Local, noPort)
	}
	cc := f.t.CoordOf(cur)
	dc := f.t.CoordOf(dst)
	dx, dy := offsets(f.t, cur, dst)
	vertical := toward(dy, topology.South, topology.North)
	if dx == 0 {
		if dy > 0 {
			return portList(topology.South, noPort)
		}
		return portList(topology.North, noPort)
	}
	if dx > 0 { // eastbound
		// EN/ES turns are forbidden in even columns, so only allow the
		// vertical move when the current column is odd, or when the
		// packet is one column west of the destination (last chance).
		if cc.X%2 == 1 || cc.X == dc.X-1 {
			return portList(vertical, topology.East)
		}
		return portList(topology.East, noPort)
	}
	// westbound: NW/SW turns are forbidden in odd columns — take the
	// vertical move only in even columns; West is always available.
	if cc.X%2 == 0 {
		return portList(vertical, topology.West)
	}
	return portList(topology.West, noPort)
}
