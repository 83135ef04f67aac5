package ac

import (
	"testing"

	"ftnoc/internal/topology"
)

// checkSAReference is the SA screen written the plain way — a lookup
// callback per grant and linear scans over index lists of the grants
// admitted so far — kept as the oracle FuzzCheckSA holds CheckSAInto to.
func checkSAReference(grants []Grant, numPorts int, lookup func(inPort topology.Port, inVC int) (Binding, bool)) []Violation {
	out := make([]Violation, len(grants))
	var seenOut, seenIn []int
	for i, g := range grants {
		if int(g.OutPort) >= numPorts {
			out[i] = InvalidPort
			continue
		}
		b, ok := lookup(g.InPort, g.InVC)
		if !ok || b.OutPort != g.OutPort {
			out[i] = StateMismatch
			continue
		}
		dup := false
		for _, j := range seenOut {
			if grants[j].OutPort == g.OutPort {
				out[i] = CrossbarCollision
				if out[j] == None {
					out[j] = CrossbarCollision
				}
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seenOut = append(seenOut, i)
		for _, j := range seenIn {
			if grants[j].InPort == g.InPort && grants[j].InVC == g.InVC {
				out[i] = Multicast
				if out[j] == None {
					out[j] = Multicast
				}
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seenIn = append(seenIn, i)
	}
	return out
}

// FuzzCheckSA decodes up to seven grants from four bytes each — input
// port 0-6 and output port 0-7 (5 and up exist on no router), input VC
// 0-3, and the output port the grant's binding names (7: none) — so
// shared outputs, repeated input VCs, out-of-range ports and missing
// bindings are all common. CheckSAInto must return the reference's
// verdicts element by element, with the bindings given per grant (two
// grants of one input VC may then disagree, which is how a multicast
// passes the agreement check) and, through CheckSA, with one binding per
// input VC.
func FuzzCheckSA(f *testing.F) {
	const unbound = 7 // the decoded binding port that stands for none
	const N, E, S = byte(topology.North), byte(topology.East), byte(topology.South)
	f.Add([]byte{})
	f.Add([]byte{N, 0, S, S, byte(topology.West), 1, E, E})       // clean
	f.Add([]byte{N, 0, S, S, byte(topology.West), 1, S, S})       // collision
	f.Add([]byte{N, 0, S, S, N, 0, E, E, N, 0, E, E})             // multicast, then a collision on it
	f.Add([]byte{N, 0, S, E, N, 1, 9, S, 6, 2, S, 7, N, 2, S, 5}) // mismatch, invalid port, missing binding
	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/4, 7)
		grants := make([]Grant, n)
		bound := make([]topology.Port, n)
		type inVC struct {
			p  topology.Port
			vc int
		}
		byVC := map[inVC]topology.Port{} // the first grant of an input VC names its binding
		for i := range n {
			b := data[4*i : 4*i+4]
			grants[i] = Grant{InPort: topology.Port(b[0] % 7), InVC: int(b[1] % 4), OutPort: topology.Port(b[2] % 8)}
			bound[i] = topology.Port(b[3] % 8)
			if _, ok := byVC[inVC{grants[i].InPort, grants[i].InVC}]; !ok {
				byVC[inVC{grants[i].InPort, grants[i].InVC}] = bound[i]
			}
		}
		// The reference asks for one binding per grant that passes the port
		// check, in grant order: hand it those grants' bindings in turn.
		var perGrant []Binding
		for i, g := range grants {
			if int(g.OutPort) < numPorts {
				perGrant = append(perGrant, Binding{InPort: g.InPort, InVC: g.InVC, OutPort: bound[i]})
			}
		}
		inTurn := func(p topology.Port, vc int) (Binding, bool) {
			b := perGrant[0]
			perGrant = perGrant[1:]
			if b.InPort != p || b.InVC != vc {
				t.Fatalf("reference looked up %v/%d out of grant order (expected %v/%d)", p, vc, b.InPort, b.InVC)
			}
			return b, b.OutPort != unbound
		}
		same := func(what string, got, want []Violation) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d verdicts for %d grants", what, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: grants %+v bound %v: verdict %d is %v, the reference says %v (all: %v vs %v)",
						what, grants, bound, i, got[i], want[i], got, want)
				}
			}
		}
		same("per-grant bindings", CheckSAInto(make([]Violation, 0, 2), grants, bound, numPorts),
			checkSAReference(grants, numPorts, inTurn))

		lookup := func(p topology.Port, vc int) (Binding, bool) {
			out := byVC[inVC{p, vc}]
			return Binding{InPort: p, InVC: vc, OutPort: out}, out != unbound
		}
		same("lookup", CheckSA(grants, numPorts, lookup), checkSAReference(grants, numPorts, lookup))
	})
}
