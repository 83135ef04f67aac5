package routing

import (
	"slices"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// Memo memoises a routing function over the whole node space, so one
// table serves every router of a network: memo[cur*n+dst] is 0 while
// Route(cur, dst) has not been computed and s > 0 once it is sets[s-1].
// sets interns the distinct candidate lists seen (at most 9 under a
// static function, 17 under up*/down*; pre-sized to 16 so it does not
// grow in a run); they are the function's own shared read-only lists. The static functions are pure in (cur, dst) —
// link health is filtered by the router, not here — so a memoised set
// stays valid for the run; the fault-adaptive function's tables change at
// hard-fault boundaries, after which the caller must Flush.
type Memo struct {
	Func
	n    int
	memo []uint8
	sets [][]topology.Port
}

// maxMemoSets is what a memo byte can index; past it routes are simply
// recomputed.
const maxMemoSets = 255

// NewMemo wraps f with an empty memo over nodes nodes, its tables in
// slabs from s (sim.Make).
func NewMemo(s *sim.Slabs, f Func, nodes int) *Memo {
	return &Memo{Func: f, n: nodes, memo: sim.Make[uint8](s, nodes*nodes), sets: sim.Make[[]topology.Port](s, 16)[:0]}
}

// Route implements Func through the memo. A node outside the node space
// (a corrupted destination, possible only in unprotected ablations) goes
// straight to the function.
func (m *Memo) Route(cur, dst flit.NodeID) []topology.Port {
	if int(cur) >= m.n || int(dst) >= m.n {
		return m.Func.Route(cur, dst)
	}
	i := int(cur)*m.n + int(dst)
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
