package routing

import (
	"slices"
	"testing"
	"testing/quick"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

func mesh8() *topology.Topology { return topology.New(topology.Mesh, 8, 8) }

func TestXYSingleCandidate(t *testing.T) {
	r := New(XY, mesh8())
	for src := 0; src < 64; src += 7 {
		for dst := 0; dst < 64; dst += 5 {
			cands := r.Route(flit.NodeID(src), flit.NodeID(dst))
			if len(cands) != 1 {
				t.Fatalf("XY Route(%d,%d) returned %d candidates", src, dst, len(cands))
			}
		}
	}
}

func TestXYOrder(t *testing.T) {
	r := New(XY, mesh8())
	// From (1,1)=9 to (5,3)=29: X first (East) until aligned, then South.
	if got := r.Route(9, 29)[0]; got != topology.East {
		t.Fatalf("first hop = %v, want E", got)
	}
	// From (5,1)=13 to (5,3)=29: aligned in X, go South.
	if got := r.Route(13, 29)[0]; got != topology.South {
		t.Fatalf("aligned-X hop = %v, want S", got)
	}
}

func TestRouteToSelfIsLocal(t *testing.T) {
	topo := mesh8()
	for _, a := range []Algorithm{XY, MinimalAdaptive, WestFirst, OddEven} {
		r := New(a, topo)
		cands := r.Route(11, 11)
		if len(cands) != 1 || cands[0] != topology.Local {
			t.Errorf("%v: Route(self) = %v, want [L]", a, cands)
		}
	}
}

// walk follows a routing function from src to dst, always taking the
// first candidate, and returns the hop count (or -1 on a cycle/overrun).
func walk(t *testing.T, r Func, topo *topology.Topology, src, dst flit.NodeID) int {
	cur := src
	for hops := 0; hops <= 4*(topo.Width()+topo.Height()); hops++ {
		cands := r.Route(cur, dst)
		if len(cands) == 0 {
			t.Fatalf("%v: no candidates at %d for dst %d", r.Algorithm(), cur, dst)
		}
		if cands[0] == topology.Local {
			if cur != dst {
				t.Fatalf("%v: ejected at %d, dst %d", r.Algorithm(), cur, dst)
			}
			return hops
		}
		next, ok := topo.Neighbor(cur, cands[0])
		if !ok {
			t.Fatalf("%v: candidate %v at %d has no link", r.Algorithm(), cands[0], cur)
		}
		cur = next
	}
	return -1
}

// Every algorithm must deliver every (src,dst) pair, and the minimal ones
// must do it in exactly the Manhattan distance.
func TestAllAlgorithmsDeliverMinimally(t *testing.T) {
	topo := mesh8()
	for _, a := range []Algorithm{XY, MinimalAdaptive, WestFirst, OddEven} {
		r := New(a, topo)
		for src := 0; src < 64; src += 3 {
			for dst := 0; dst < 64; dst += 5 {
				s, d := flit.NodeID(src), flit.NodeID(dst)
				hops := walk(t, r, topo, s, d)
				if hops != topo.HopDistance(s, d) {
					t.Fatalf("%v: %d->%d took %d hops, minimal is %d", a, s, d, hops, topo.HopDistance(s, d))
				}
			}
		}
	}
}

// Every candidate an algorithm returns must be productive: following it
// reduces the distance to the destination.
func TestCandidatesAreProductive(t *testing.T) {
	topo := mesh8()
	f := func(sRaw, dRaw uint8, aRaw uint8) bool {
		algos := []Algorithm{XY, MinimalAdaptive, WestFirst, OddEven}
		a := algos[int(aRaw)%len(algos)]
		r := New(a, topo)
		s, d := flit.NodeID(sRaw%64), flit.NodeID(dRaw%64)
		if s == d {
			return true
		}
		for _, c := range r.Route(s, d) {
			next, ok := topo.Neighbor(s, c)
			if !ok {
				return false
			}
			if topo.HopDistance(next, d) != topo.HopDistance(s, d)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveReturnsBothProductiveDirections(t *testing.T) {
	r := New(MinimalAdaptive, mesh8())
	// (1,1)=9 to (3,3)=27: both East and South are productive.
	cands := r.Route(9, 27)
	if len(cands) != 2 {
		t.Fatalf("adaptive Route(9,27) = %v, want 2 candidates", cands)
	}
	seen := map[topology.Port]bool{}
	for _, c := range cands {
		seen[c] = true
	}
	if !seen[topology.East] || !seen[topology.South] {
		t.Fatalf("adaptive candidates = %v, want {E,S}", cands)
	}
}

func TestWestFirstRestriction(t *testing.T) {
	r := New(WestFirst, mesh8())
	// Westward traffic gets no adaptivity: (5,1)=13 to (1,3)=25.
	cands := r.Route(13, 25)
	if len(cands) != 1 || cands[0] != topology.West {
		t.Fatalf("west-first westbound candidates = %v, want [W]", cands)
	}
	// Eastbound traffic may adapt: (1,1)=9 to (5,3)=29.
	if len(r.Route(9, 29)) < 2 {
		t.Fatal("west-first eastbound should offer adaptivity")
	}
}

// The odd-even turn model forbids east->north and east->south turns in
// even columns.
func TestOddEvenTurnRule(t *testing.T) {
	r := New(OddEven, mesh8())
	// At (2,1)=10 (even column), heading to (5,3)=29 (dx>0, dy>0): the
	// EN/ES turn is forbidden, so only East may be offered — unless the
	// node is just west of the destination column.
	for _, c := range r.Route(10, 29) {
		if c == topology.South || c == topology.North {
			t.Fatalf("odd-even allowed a vertical turn in an even column: %v", r.Route(10, 29))
		}
	}
	// At (3,1)=11 (odd column) the same request may turn.
	found := false
	for _, c := range r.Route(11, 29) {
		if c == topology.South {
			found = true
		}
	}
	if !found {
		t.Fatalf("odd-even refused a legal turn in an odd column: %v", r.Route(11, 29))
	}
}

func TestTorusShortestWay(t *testing.T) {
	topo := topology.New(topology.Torus, 8, 8)
	r := New(XY, topo)
	// 0 -> 7 should wrap west (1 hop), not walk east (7 hops).
	if got := r.Route(0, 7)[0]; got != topology.West {
		t.Fatalf("torus XY(0,7) = %v, want W (wrap)", got)
	}
}

func TestAlgorithmStringAndAdaptive(t *testing.T) {
	if XY.String() != "xy" || MinimalAdaptive.String() != "adaptive" {
		t.Error("Algorithm.String wrong")
	}
	if XY.Adaptive() {
		t.Error("XY reported adaptive")
	}
	for _, a := range []Algorithm{MinimalAdaptive, WestFirst, OddEven} {
		if !a.Adaptive() {
			t.Errorf("%v reported deterministic", a)
		}
	}
}

func TestNewPanicsOnUnknownAlgorithm(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm did not panic")
		}
	}()
	New(Algorithm(99), mesh8())
}

// Route runs on the routers' hot path, once per route-memo miss, and the
// steady-state kernel benchmarks hold that path to zero allocations:
// every algorithm must return one of the shared interned lists, and a
// warm Memo must answer from its table.
func TestRouteAllocatesNothing(t *testing.T) {
	topo := topology.New(topology.Mesh, 6, 6)
	topo.FailLink(8, topology.East)
	for _, a := range []Algorithm{XY, MinimalAdaptive, WestFirst, OddEven, FaultAdaptive} {
		r := New(a, topo)
		i := 0
		n := testing.AllocsPerRun(500, func() {
			i++
			sinkPorts = r.Route(flit.NodeID(i%36), flit.NodeID((i*7+13)%36))
		})
		if n != 0 {
			t.Errorf("%v: Route allocates %v times per call, want 0", a, n)
		}
		m := NewMemo(nil, r, topo.Nodes())
		for j := 0; j < 36*36; j++ {
			m.Route(flit.NodeID(j/36), flit.NodeID(j%36))
		}
		if n := testing.AllocsPerRun(500, func() {
			i++
			sinkPorts = m.Route(flit.NodeID(i%36), flit.NodeID((i*7+13)%36))
		}); n != 0 {
			t.Errorf("%v: a warm Memo.Route allocates %v times per call, want 0", a, n)
		}
	}
	// A caller that appends to a shared list must get a copy, not write
	// into the next list's storage.
	l := New(MinimalAdaptive, topo).Route(0, 35)
	before := append([]topology.Port(nil), New(MinimalAdaptive, topo).Route(0, 35)...)
	_ = append(l, topology.Local)
	if got := New(MinimalAdaptive, topo).Route(0, 35); !slices.Equal(got, before) {
		t.Fatalf("appending to a routed list changed the shared copy: %v -> %v", before, got)
	}
}

var sinkPorts []topology.Port
