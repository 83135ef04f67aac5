// Package link models the inter-router transmission path of Fig. 3: the
// per-VC FIFO transmission buffer, the 3-flit-deep barrel-shifter
// retransmission buffer, the channel wires (flit, credit, NACK), and the
// fault-injecting link itself.
package link

import (
	"fmt"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
)

// FIFO is a bounded flit queue: the "normal transmission buffer" of the
// paper (one per virtual channel). Deadlock recovery (§3.2.1) does not
// stretch it: the router parks flits from it in the VC's pending queue,
// which stands for the retransmission shifter's slots.
type FIFO struct {
	cap int
	// buf[head:] holds the queued flits; the consumed prefix is reclaimed
	// by compaction instead of reslicing, so a steady-state queue reuses
	// one backing array forever.
	buf  []flit.Flit
	head int
}

// NewFIFOs creates n queues of the given capacity in two slabs from s
// (sim.Make) however large n is: the queues are one slice, and their
// backing storage is carved out of one contiguous arena, for cache
// locality when a router walks its VC buffers (router.NewRouters makes
// one call for every router of a network). Each queue's window is capacity-capped (a three-index
// slice), so no append can reach a neighbour's window. Callers keep
// pointers &fifos[i].
func NewFIFOs(s *sim.Slabs, n, capacity int) []FIFO {
	if capacity < 1 {
		panic("link: FIFO capacity must be >= 1")
	}
	fifos := sim.Make[FIFO](s, n)
	arena := sim.Make[flit.Flit](s, n*capacity)
	for i := range fifos {
		fifos[i].cap = capacity
		fifos[i].buf = arena[i*capacity : i*capacity : (i+1)*capacity]
	}
	return fifos
}

// Cap returns the capacity.
func (q *FIFO) Cap() int { return q.cap }

// Len returns the current occupancy.
func (q *FIFO) Len() int { return len(q.buf) - q.head }

// Free returns the number of empty slots.
func (q *FIFO) Free() int { return q.cap - q.Len() }

// Full reports whether no slot is free.
func (q *FIFO) Full() bool { return q.Free() <= 0 }

// Empty reports whether the queue holds no flits.
func (q *FIFO) Empty() bool { return q.head >= len(q.buf) }

// Push appends a copy of *f — the one write that puts a flit into its
// buffer slot. It panics on overflow — the credit protocol must prevent
// it, so an overflow is a flow-control bug, not a runtime condition.
func (q *FIFO) Push(f *flit.Flit) {
	if q.Full() {
		panic(fmt.Sprintf("link: FIFO overflow (cap %d): %v", q.cap, *f))
	}
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, *f)
}

// Front returns the slot of the oldest flit without removing it, or nil
// when the queue is empty. The pointer is good until the next Push or Pop
// on this queue: a Push may compact or regrow the backing array.
func (q *FIFO) Front() *flit.Flit {
	if q.Empty() {
		return nil
	}
	return &q.buf[q.head]
}

// Pop removes and returns the oldest flit.
func (q *FIFO) Pop() (flit.Flit, bool) {
	if q.Empty() {
		return flit.Flit{}, false
	}
	f := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return f, true
}

// Snapshot returns a copy of the queued flits, oldest first (for tests and
// trace tooling).
func (q *FIFO) Snapshot() []flit.Flit {
	out := make([]flit.Flit, q.Len())
	copy(out, q.buf[q.head:])
	return out
}
