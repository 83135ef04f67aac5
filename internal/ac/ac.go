// Package ac implements the Allocation Comparator unit of Fig. 12: a
// compact combinational checker that cross-examines the state of the
// routing unit (RT), the virtual-channel allocator (VA) and the switch
// allocator (SA) to catch intra-router logic soft errors (§4.1, §4.3).
//
// The unit performs three comparisons in parallel, within one clock
// cycle:
//
//  1. every output VC assigned by the VA must agree with the routing
//     function's candidate set (catches scenario 4b of §4.1);
//  2. the VA state must contain no invalid and no duplicate output-VC
//     assignments (catches scenarios 1–3);
//  3. the SA grant vector must contain no invalid output port, no two
//     grants to the same output (crossbar collision) and no input granted
//     multiple outputs (multicast) (catches cases b–d of §4.3).
//
// The checks are pure functions over state snapshots: detection is
// honest — the comparator finds the corruption, it is not told about it.
package ac

import (
	"fmt"

	"ftnoc/internal/topology"
)

// Binding is one entry of the VA state table: input VC (inPort, inVC) has
// been paired with output VC (outPort, outVC).
type Binding struct {
	InPort  topology.Port
	InVC    int
	OutPort topology.Port
	OutVC   int
}

// Grant is one entry of the SA grant vector for a cycle: the flit at the
// front of (inPort, inVC) traverses the crossbar to outPort.
type Grant struct {
	InPort  topology.Port
	InVC    int
	OutPort topology.Port
}

// Violation classifies what a comparator check found.
type Violation uint8

// Violations. None means the allocation is clean.
const (
	None Violation = iota
	// InvalidVC: the assigned output VC id does not exist (scenario 1).
	InvalidVC
	// InvalidPort: the assigned or granted output port does not exist.
	InvalidPort
	// DuplicateAssignment: the output VC is already bound to another
	// input VC (scenarios 2 and 3).
	DuplicateAssignment
	// RouteDisagreement: the assigned output port is not in the routing
	// function's candidate set (scenario 4b).
	RouteDisagreement
	// CrossbarCollision: two SA grants target the same output port
	// (case c of §4.3).
	CrossbarCollision
	// Multicast: one input VC granted multiple outputs (case d).
	Multicast
	// StateMismatch: an SA grant disagrees with the VA binding of its
	// input VC (case b: flit sent to a direction different from its
	// header).
	StateMismatch
)

// String implements fmt.Stringer.
func (v Violation) String() string {
	switch v {
	case None:
		return "none"
	case InvalidVC:
		return "invalid-vc"
	case InvalidPort:
		return "invalid-port"
	case DuplicateAssignment:
		return "duplicate-assignment"
	case RouteDisagreement:
		return "route-disagreement"
	case CrossbarCollision:
		return "crossbar-collision"
	case Multicast:
		return "multicast"
	case StateMismatch:
		return "state-mismatch"
	default:
		return fmt.Sprintf("Violation(%d)", uint8(v))
	}
}

// CheckVA validates a fresh VA allocation b against the routing
// function's candidate ports for that packet, the number of VCs per
// physical channel, and the pre-existing bindings. It returns the first
// violation found, or None.
func CheckVA(b Binding, candidates []topology.Port, vcsPerPC, numPorts int, existing []Binding) Violation {
	if int(b.OutPort) >= numPorts {
		return InvalidPort
	}
	if b.OutVC < 0 || b.OutVC >= vcsPerPC {
		return InvalidVC
	}
	inSet := false
	for _, c := range candidates {
		if c == b.OutPort {
			inSet = true
			break
		}
	}
	if !inSet {
		return RouteDisagreement
	}
	for _, e := range existing {
		if e.InPort == b.InPort && e.InVC == b.InVC {
			continue // the entry being (re)written
		}
		if e.OutPort == b.OutPort && e.OutVC == b.OutVC {
			return DuplicateAssignment
		}
	}
	return None
}

// CheckSA validates a cycle's SA grant vector against the VA state. The
// lookup callback resolves the VA binding of an input VC (ok=false if the
// input VC holds no binding — itself a violation). It returns, aligned
// with grants, the violation found for each grant (None for clean ones).
func CheckSA(grants []Grant, numPorts int, lookup func(inPort topology.Port, inVC int) (Binding, bool)) []Violation {
	bound := make([]topology.Port, len(grants))
	for i, g := range grants {
		bound[i] = topology.NumPorts // no binding: no grant agrees with it
		if b, ok := lookup(g.InPort, g.InVC); ok {
			bound[i] = b.OutPort
		}
	}
	return CheckSAInto(nil, grants, bound, numPorts)
}

// CheckSAInto is the SA screen itself, writing its result into dst (grown
// as needed) so steady-state callers can reuse one buffer. bound[i] is the
// output port the VA binding of grant i's input VC names — any port not
// below numPorts when it holds none; the caller resolves it, since the SA
// agreement check reads nothing else of the binding (a grant with no
// binding, or a binding on another port, is a StateMismatch). numPorts may
// not exceed topology.NumPorts: the collision
// screen reads a port-indexed owner table, and since at most one grant per
// output port survives it, the multicast screen's list of admitted grants
// is port-sized too.
func CheckSAInto(dst []Violation, grants []Grant, bound []topology.Port, numPorts int) []Violation {
	if numPorts > int(topology.NumPorts) {
		panic(fmt.Sprintf("ac: CheckSAInto for %d ports, at most %d", numPorts, topology.NumPorts))
	}
	if cap(dst) < len(grants) {
		dst = make([]Violation, len(grants))
	}
	out := dst[:len(grants)]
	// owner[p] is 1 + the index of the grant admitted to output p (0: none);
	// seenIn lists the grants the multicast screen then admitted, and
	// inPorts has bit InPort%64 set for each, so a grant whose input port
	// no admitted grant shares skips the list. A grant that fails a screen
	// is reported but never admitted, so a later duplicate always blames
	// the first admitted entry.
	var owner [topology.NumPorts]int
	var seenIn [topology.NumPorts]int
	nIn := 0
	var inPorts uint64
	for i, g := range grants {
		out[i] = None
		if int(g.OutPort) >= numPorts {
			out[i] = InvalidPort
			continue
		}
		if bound[i] != g.OutPort {
			out[i] = StateMismatch
			continue
		}
		if j := owner[g.OutPort] - 1; j >= 0 {
			out[i] = CrossbarCollision
			if out[j] == None {
				out[j] = CrossbarCollision
			}
			continue
		}
		owner[g.OutPort] = i + 1
		bit := uint64(1) << (g.InPort % 64)
		if inPorts&bit != 0 && multicast(out, grants, seenIn[:nIn], i) {
			continue
		}
		inPorts |= bit
		seenIn[nIn] = i
		nIn++
	}
	return out
}

// multicast reports whether an admitted grant of seen shares grant i's
// input VC, marking both in out if so.
func multicast(out []Violation, grants []Grant, seen []int, i int) bool {
	for _, j := range seen {
		if grants[j].InPort == grants[i].InPort && grants[j].InVC == grants[i].InVC {
			out[i] = Multicast
			if out[j] == None {
				out[j] = Multicast
			}
			return true
		}
	}
	return false
}

// Entries returns the number of state entries the comparator examines for
// a router with p ports and v VCs per port — the PV figure the paper uses
// to argue the unit's compactness (§4.1: 5x4 = 20 entries for the
// synthesized router).
func Entries(p, v int) int { return p * v }
