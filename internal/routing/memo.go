package routing

import (
	"slices"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// Memo memoises a routing function over a range of rows of the node
// space, so one table serves every router of a network (or of one shard
// of it): memo[(cur-lo)*n+dst] is 0 while Route(cur, dst) has not been
// computed and s > 0 once it is sets[s-1]; a row outside [lo, hi) is
// computed, never memoised. sets interns the distinct candidate lists
// seen (at most 9 under a static function, 17 under up*/down*; pre-sized
// to 16 so it does not grow in a run); they are the function's own
// shared read-only lists. The static functions are pure in (cur, dst) —
// link health is filtered by the router, not here — so a memoised set
// stays valid for the run; the fault-adaptive function's tables change at
// hard-fault boundaries, after which the caller must Flush.
type Memo struct {
	Func
	n, lo, hi int
	memo      []uint8
	sets      [][]topology.Port
}

// maxMemoSets is what a memo byte can index; past it routes are simply
// recomputed.
const maxMemoSets = 255

// NewMemo wraps f with an empty memo over nodes nodes, its tables in
// slabs from s (sim.Make).
func NewMemo(s *sim.Slabs, f Func, nodes int) *Memo { return &NewMemos(s, f, nodes, 0, nodes)[0] }

// NewMemos wraps f with one empty memo per row range: memo i memoises the
// rows [bounds[i], bounds[i+1]). The memos share no state, so routers of
// different ranges may route concurrently, each through its own range's
// memo. Everything comes from three slabs of s (sim.Make).
func NewMemos(s *sim.Slabs, f Func, nodes int, bounds ...int) []Memo {
	ms := sim.Make[Memo](s, len(bounds)-1)
	table := sim.Make[uint8](s, (bounds[len(bounds)-1]-bounds[0])*nodes)
	sets := sim.Make[[]topology.Port](s, 16*len(ms))
	for i := range ms {
		lo, hi := bounds[i], bounds[i+1]
		at := (lo - bounds[0]) * nodes
		ms[i] = Memo{
			Func: f, n: nodes, lo: lo, hi: hi,
			memo: table[at : at+(hi-lo)*nodes : at+(hi-lo)*nodes],
			sets: sets[16*i : 16*i : 16*(i+1)],
		}
	}
	return ms
}

// Route implements Func through the memo. A row outside the memo's range,
// or a destination outside the node space (a corrupted one, possible only
// in unprotected ablations), goes straight to the function.
func (m *Memo) Route(cur, dst flit.NodeID) []topology.Port {
	row := int(cur) - m.lo
	if uint(row) >= uint(m.hi-m.lo) || int(dst) >= m.n {
		return m.Func.Route(cur, dst)
	}
	i := row*m.n + int(dst)
	if s := m.memo[i]; s != 0 {
		return m.sets[s-1]
	}
	c := m.Func.Route(cur, dst)
	for s, set := range m.sets {
		if slices.Equal(set, c) {
			m.memo[i] = uint8(s + 1)
			return set
		}
	}
	if len(m.sets) < maxMemoSets {
		m.sets = append(m.sets, c)
		m.memo[i] = uint8(len(m.sets))
	}
	return c
}

// Flush forgets every memoised route and interned set. Candidate lists
// already handed out stay valid: they belong to the routing function.
func (m *Memo) Flush() {
	clear(m.memo)
	m.sets = m.sets[:0]
}
