package routing

import (
	"cmp"
	"math"
	"slices"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// FaultAdaptiveFunc is the up*/down* routing function (Autonet's scheme,
// the substrate of general fault-tolerant deadlock-free routing): every
// live link is oriented by a BFS of the surviving topology, and a legal
// path takes zero or more "up" hops (toward the component root in the
// (level, id) order) followed by zero or more "down" hops — the down→up
// turn is forbidden. The orientation gives two consequences at once:
//
//   - Deadlock-freedom on ANY fault pattern: up channels only ever wait
//     on channels with strictly smaller (level, id) target, down
//     channels only on strictly larger, and up never waits on down via
//     the forbidden turn — so the channel dependency graph is acyclic
//     and wormhole deadlock is impossible, no matter which links died.
//   - Delivery between mutually reachable pairs: within a connected
//     component the BFS root reaches every node by down hops along tree
//     edges, so cur ⇝ root ⇝ dst is always legal; the distance tables
//     below find the shortest legal path, not just that fallback.
//
// Route consults precomputed per-destination distance tables; Rebuild
// recomputes them from the live topology and must be called (serially —
// Route is lock-free) whenever a hard fault changes the graph.
type FaultAdaptiveFunc struct {
	t *topology.Topology
	n int

	// level is each node's BFS depth in its component (roots at 0). The
	// pair (level, id) totally orders nodes; a hop a→b is "up" iff
	// (level[b], b) < (level[a], a).
	level []int32

	// down[dst*n+v] is the length of the shortest down-only path v→dst
	// (infDist if none); updown[dst*n+v] the shortest legal up*/down*
	// path. A packet at v bound for dst descends while down is finite
	// and climbs along decreasing updown otherwise.
	down   []uint16
	updown []uint16

	// order and queue are Rebuild's scratch: the nodes in (level, id)
	// order and the BFS queue every search reuses — a node enters a
	// queue at most once, so n slots hold any of them.
	order []flit.NodeID
	queue []flit.NodeID
}

const infDist = math.MaxUint16

// NewFaultAdaptiveFunc builds the routing function and its initial
// tables over topo's current live graph.
func NewFaultAdaptiveFunc(t *topology.Topology) *FaultAdaptiveFunc {
	return newFaultAdaptiveFunc(nil, t)
}

// newFaultAdaptiveFunc is NewFaultAdaptiveFunc with the tables in three
// slabs from s (sim.Make).
func newFaultAdaptiveFunc(s *sim.Slabs, t *topology.Topology) *FaultAdaptiveFunc {
	n := t.Width() * t.Height()
	dists := sim.Make[uint16](s, 2*n*n)
	scratch := sim.Make[flit.NodeID](s, 2*n)
	f := &FaultAdaptiveFunc{
		t: t, n: n,
		level:  sim.Make[int32](s, n),
		down:   dists[: n*n : n*n],
		updown: dists[n*n:],
		order:  scratch[:n:n],
		queue:  scratch[n:],
	}
	f.Rebuild()
	return f
}

// Algorithm implements Func.
func (f *FaultAdaptiveFunc) Algorithm() Algorithm { return FaultAdaptive }

// dirs is the deterministic neighbor iteration order.
var dirs = [...]topology.Port{topology.North, topology.East, topology.South, topology.West}

// dirSubsets interns every subset of dirs, in dirs order, indexed by the
// bitmask of chosen positions: Route picks hops by testing each direction
// in turn, so its result is one of these sixteen shared read-only lists
// and never allocates. dirSubsets[0] is nil, the unreachable verdict.
var dirSubsets = func() (t [1 << len(dirs)][]topology.Port) {
	for m := range t {
		var l []topology.Port
		for i, d := range dirs {
			if m&(1<<i) != 0 {
				l = append(l, d)
			}
		}
		t[m] = slices.Clip(l)
	}
	return t
}()

// Rebuild recomputes the BFS orientation and all per-destination
// distance tables from the topology's current live links. O(n²) time
// and called only at hard-fault boundaries (and construction), so the
// cost is per death, not per cycle.
func (f *FaultAdaptiveFunc) Rebuild() {
	n := f.n
	for i := range f.level {
		f.level[i] = -1
	}
	// BFS forest in id order: each unvisited node roots its component.
	for root := 0; root < n; root++ {
		if f.level[root] >= 0 {
			continue
		}
		f.level[root] = 0
		queue := append(f.queue[:0], flit.NodeID(root))
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, d := range dirs {
				nbr, ok := f.liveNeighbor(cur, d)
				if !ok || f.level[nbr] >= 0 {
					continue
				}
				f.level[nbr] = f.level[cur] + 1
				queue = append(queue, nbr)
			}
		}
	}

	// Nodes in increasing (level, id) order — the up direction points
	// toward earlier entries, so a single pass in this order computes
	// updown once down is known.
	order := f.order
	for i := range order {
		order[i] = flit.NodeID(i)
	}
	slices.SortFunc(order, f.compare)

	for dst := 0; dst < n; dst++ {
		f.buildDst(flit.NodeID(dst), order, f.queue[:0])
	}
}

// compare orders nodes by (level, id), the up*/down* order.
func (f *FaultAdaptiveFunc) compare(a, b flit.NodeID) int {
	return cmp.Or(cmp.Compare(f.level[a], f.level[b]), cmp.Compare(a, b))
}

// before reports whether a precedes b in the (level, id) order.
func (f *FaultAdaptiveFunc) before(a, b flit.NodeID) bool { return f.compare(a, b) < 0 }

// liveNeighbor returns cur's neighbor through d when the directed link
// is up.
func (f *FaultAdaptiveFunc) liveNeighbor(cur flit.NodeID, d topology.Port) (flit.NodeID, bool) {
	if !f.t.LinkUp(cur, d) {
		return 0, false
	}
	return f.t.Neighbor(cur, d)
}

// buildDst fills the down and updown tables for one destination.
func (f *FaultAdaptiveFunc) buildDst(dst flit.NodeID, order, queue []flit.NodeID) {
	down := f.down[int(dst)*f.n : (int(dst)+1)*f.n]
	updown := f.updown[int(dst)*f.n : (int(dst)+1)*f.n]
	for i := range down {
		down[i] = infDist
		updown[i] = infDist
	}
	// Down distances: BFS from dst over reversed down edges — a node v
	// at distance k+1 has a down hop (to larger (level, id)) onto a node
	// at distance k.
	down[dst] = 0
	queue = append(queue[:0], dst)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range dirs {
			nbr, ok := f.liveNeighbor(cur, d)
			// The reverse of a down hop nbr→cur: nbr must precede cur.
			if !ok || !f.before(nbr, cur) || down[nbr] != infDist {
				continue
			}
			down[nbr] = down[cur] + 1
			queue = append(queue, nbr)
		}
	}
	// Legal distances: climb until some ancestor's down-cone contains
	// dst. updown[v] depends only on up-neighbors — nodes earlier in the
	// (level, id) order — so one pass in that order suffices.
	for _, v := range order {
		best := down[v]
		for _, d := range dirs {
			nbr, ok := f.liveNeighbor(v, d)
			if !ok || !f.before(nbr, v) {
				continue
			}
			if up := updown[nbr]; up != infDist && up+1 < best {
				best = up + 1
			}
		}
		updown[v] = best
	}
}

// Route implements Func. In the down phase (a down-only path to dst
// exists) it offers every down hop on a shortest down path; otherwise
// it offers every up hop that shortens the legal distance. An
// unreachable destination yields an empty set — the caller's signal to
// declare the packet undeliverable rather than let it wait forever.
func (f *FaultAdaptiveFunc) Route(cur, dst flit.NodeID) []topology.Port {
	if cur == dst {
		return portList(topology.Local, noPort)
	}
	down := f.down[int(dst)*f.n : (int(dst)+1)*f.n]
	updown := f.updown[int(dst)*f.n : (int(dst)+1)*f.n]
	if updown[cur] == infDist {
		return nil
	}
	hops := 0 // bitmask over dirs
	if dd := down[cur]; dd != infDist {
		for i, d := range dirs {
			nbr, ok := f.liveNeighbor(cur, d)
			if ok && f.before(cur, nbr) && down[nbr] == dd-1 {
				hops |= 1 << i
			}
		}
		return dirSubsets[hops]
	}
	ud := updown[cur]
	for i, d := range dirs {
		nbr, ok := f.liveNeighbor(cur, d)
		if ok && f.before(nbr, cur) && updown[nbr] == ud-1 {
			hops |= 1 << i
		}
	}
	return dirSubsets[hops]
}
