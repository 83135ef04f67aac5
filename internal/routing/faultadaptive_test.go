package routing

import (
	"math/rand"
	"testing"

	"ftnoc/internal/flit"
	"ftnoc/internal/topology"
)

// bfsReachable is the oracle: component labels by plain BFS over the
// live graph, independent of the up*/down* machinery.
func bfsReachable(t *topology.Topology) []int {
	n := t.Width() * t.Height()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		comp[root] = root
		queue := []flit.NodeID{flit.NodeID(root)}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, d := range dirs {
				if !t.LinkUp(cur, d) {
					continue
				}
				nbr, _ := t.Neighbor(cur, d)
				if comp[nbr] < 0 {
					comp[nbr] = root
					queue = append(queue, nbr)
				}
			}
		}
	}
	return comp
}

// failRandomLinks downs up to frac of the physical links, both
// directions, and returns the live topology.
func failRandomLinks(w, h int, frac float64, rng *rand.Rand) *topology.Topology {
	t := topology.New(topology.Mesh, w, h)
	links := t.AppendLinks(nil)
	for _, l := range links {
		nbr, _ := t.Neighbor(l.From, l.Dir)
		if l.From > nbr {
			continue // one entry per physical link
		}
		if rng.Float64() < frac {
			t.FailLink(l.From, l.Dir)
			t.FailLink(nbr, l.Dir.Opposite())
		}
	}
	return t
}

// TestFaultAdaptiveProperties drives the routing function over random
// fault patterns (up to ~30% dead links) and asserts, against the BFS
// oracle: reachability agreement, progress (walking any candidate chain
// reaches the destination within a hop bound — no livelock), the
// up*/down* turn discipline (never down then up), and that candidates
// only ever name live links.
func TestFaultAdaptiveProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfadada))
	for trial := 0; trial < 40; trial++ {
		w, h := 3+rng.Intn(5), 3+rng.Intn(5)
		topo := failRandomLinks(w, h, 0.3*rng.Float64(), rng)
		f := NewFaultAdaptiveFunc(topo)
		comp := bfsReachable(topo)
		n := w * h
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				s, d := flit.NodeID(src), flit.NodeID(dst)
				if got, want := len(f.Route(s, d)) > 0, comp[src] == comp[dst]; got != want {
					t.Fatalf("trial %d (%dx%d): Route(%d,%d) non-empty=%v, oracle reachable=%v", trial, w, h, src, dst, got, want)
				}
				walkToDst(t, f, topo, s, d, comp)
			}
		}
	}
}

// walkToDst follows the worst candidate (the last offered) from src to
// dst, checking the turn discipline and a hop bound on the way.
func walkToDst(t *testing.T, f *FaultAdaptiveFunc, topo *topology.Topology, src, dst flit.NodeID, comp []int) {
	t.Helper()
	cur := src
	wentDown := false
	for hops := 0; ; hops++ {
		if hops > 4*len(comp) {
			t.Fatalf("livelock: %d -> %d not reached after %d hops", src, dst, hops)
		}
		ps := f.Route(cur, dst)
		if cur == dst {
			if len(ps) != 1 || ps[0] != topology.Local {
				t.Fatalf("Route(%d,%d) at destination = %v, want [Local]", cur, dst, ps)
			}
			return
		}
		if comp[src] != comp[dst] {
			if len(ps) != 0 {
				t.Fatalf("Route(%d,%d) offered %v for an unreachable destination", cur, dst, ps)
			}
			return
		}
		if len(ps) == 0 {
			t.Fatalf("Route(%d,%d) empty for a reachable destination (at %d)", src, dst, cur)
		}
		next := ps[len(ps)-1]
		if !topo.LinkUp(cur, next) {
			t.Fatalf("Route(%d,%d) offered dead link %v at %d", src, dst, next, cur)
		}
		nbr, _ := topo.Neighbor(cur, next)
		if f.before(cur, nbr) { // down hop
			wentDown = true
		} else if wentDown {
			t.Fatalf("down→up turn on %d -> %d at node %d", src, dst, cur)
		}
		cur = nbr
	}
}

// TestFaultAdaptiveRebuildTracksDeaths kills links one at a time and
// re-checks reachability agreement after every Rebuild.
func TestFaultAdaptiveRebuildTracksDeaths(t *testing.T) {
	topo := topology.New(topology.Mesh, 4, 4)
	f := NewFaultAdaptiveFunc(topo)
	rng := rand.New(rand.NewSource(7))
	links := topo.AppendLinks(nil)
	for kill := 0; kill < 8; kill++ {
		l := links[rng.Intn(len(links))]
		nbr, _ := topo.Neighbor(l.From, l.Dir)
		if !topo.LinkUp(l.From, l.Dir) {
			continue
		}
		topo.FailLink(l.From, l.Dir)
		topo.FailLink(nbr, l.Dir.Opposite())
		f.Rebuild()
		comp := bfsReachable(topo)
		for src := 0; src < 16; src++ {
			for dst := 0; dst < 16; dst++ {
				if got, want := len(f.Route(flit.NodeID(src), flit.NodeID(dst))) > 0, comp[src] == comp[dst]; got != want {
					t.Fatalf("after kill %d: Route(%d,%d) non-empty=%v, oracle reachable=%v", kill, src, dst, got, want)
				}
			}
		}
	}
}

func TestFaultAdaptiveParseAndString(t *testing.T) {
	if FaultAdaptive.String() != "fault-adaptive" {
		t.Fatalf("String = %q", FaultAdaptive.String())
	}
	for _, s := range []string{"fault-adaptive", "faultadaptive", "FA", "updown", "up-down"} {
		a, err := Parse(s)
		if err != nil || a != FaultAdaptive {
			t.Fatalf("Parse(%q) = %v, %v", s, a, err)
		}
	}
	if !FaultAdaptive.Adaptive() {
		t.Fatal("FaultAdaptive must report adaptive")
	}
	if New(FaultAdaptive, topology.New(topology.Mesh, 3, 3)).Algorithm() != FaultAdaptive {
		t.Fatal("factory wired wrong")
	}
}
