package router

import (
	"math/bits"
	"slices"

	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// vcState is the input virtual channel's pipeline state.
type vcState uint8

const (
	// vcIdle: no packet resident; a Head flit at the buffer front starts
	// a new packet.
	vcIdle vcState = iota
	// vcVAWait: route computed, waiting for an output VC (the VA stage).
	vcVAWait
	// vcActive: output VC held; flits stream through SA/crossbar until
	// the tail passes.
	vcActive
)

// inputVC is one virtual channel of one input port: the FIFO
// "transmission buffer", the packet's pipeline state, and the deadlock /
// misroute recovery queue.
type inputVC struct {
	port topology.Port
	idx  int
	// flat is this VC's index in the router's flattened (port, vc) order,
	// its bit in the allocator masks.
	flat int
	buf  *link.FIFO

	// state is written only by Router.setState, which keeps the allocator
	// masks in step.
	state      vcState
	dst        flit.NodeID
	candidates []topology.Port
	outPort    topology.Port
	outVC      int

	// Stage timing (§2.1): the earliest cycles VA/SA may serve the
	// resident header, derived from pipeline depth.
	earliestVA uint64
	earliestSA uint64

	// pending[pendHead:] holds flits that already left the buffer but
	// must be (re)sent before anything else from this VC: flits parked in
	// the retransmission shifter during deadlock recovery (§3.2.1), or
	// recalled after a misroute NACK (§4.2). Their buffer credits were
	// returned when they left the buffer, so popping pending entries
	// returns no upstream credit. The head index keeps the backing array
	// across pops, as the transmitter's replay queue does: it is made on
	// the first park or recall and grows only with its high-water mark.
	pending  []flit.Flit
	pendHead int

	// lastProgress is the last cycle a flit left this VC (or it was
	// empty); the blocked-time clock for deadlock detection (Rule 1).
	lastProgress uint64
	// probeOutstanding marks that this VC's suspicion probe is in flight.
	probeOutstanding bool
	// probeSentAt is when the last probe left, throttling re-probes.
	probeSentAt uint64
	// member marks the resident packet as part of a suspected deadlock
	// configuration: the deadlock-detection probes traverse exactly the
	// VCs of the cyclic dependency, so a VC a probe originated from or
	// passed through is a member. Members may allocate output VCs toward
	// recovering neighbors (their advance IS the recovery); non-members
	// are the "new packets" §3.2.1 excludes. Cleared when the packet's
	// tail leaves.
	member bool
}

// frontSlot returns the next flit this VC must emit, where it rests — the
// pending queue or the buffer — or nil when the VC is empty. The pointer
// is for looking, and good until the VC next gains or loses a flit.
func (v *inputVC) frontSlot() *flit.Flit {
	if v.pendHead < len(v.pending) {
		return &v.pending[v.pendHead]
	}
	return v.buf.Front()
}

// occupied returns the number of flits resident in this VC (buffer +
// pending queue).
func (v *inputVC) occupied() int { return v.buf.Len() + len(v.queued()) }

// queued returns the pending queue, front first. The slice is for
// looking, and good until the queue next changes.
func (v *inputVC) queued() []flit.Flit { return v.pending[v.pendHead:] }

// park appends a flit to the pending queue, first sliding the queue to
// the front of its array when the array is full.
func (v *inputVC) park(f flit.Flit) {
	if v.pendHead > 0 && len(v.pending) == cap(v.pending) {
		v.slideQueue()
	}
	v.pending = append(v.pending, f)
}

// popPending removes the front of a non-empty pending queue into *dst;
// the backing array is recycled once the queue drains.
func (v *inputVC) popPending(dst *flit.Flit) {
	*dst = v.pending[v.pendHead]
	v.pendHead++
	if v.pendHead == len(v.pending) {
		v.clearPending()
	}
}

// recall puts the flits tx recalls from output VC ov ahead of the
// pending queue, in place: they are appended behind the queue and the
// whole rotated until they lead. It returns the recalled flits.
func (v *inputVC) recall(tx *link.Transmitter, ov int) []flit.Flit {
	v.slideQueue()
	waiting := len(v.pending)
	q := tx.Recall(v.pending, ov)
	slices.Reverse(q[:waiting])
	slices.Reverse(q[waiting:])
	slices.Reverse(q)
	v.pending = q
	return q[:len(q)-waiting]
}

// slideQueue moves the pending queue to the front of its array.
func (v *inputVC) slideQueue() {
	n := copy(v.pending, v.queued())
	v.pending, v.pendHead = v.pending[:n], 0
}

// clearPending empties the pending queue, keeping its array.
func (v *inputVC) clearPending() { v.pending, v.pendHead = v.pending[:0], 0 }

// fitPending gives the pending queue of every input VC of this router a
// NACKWindow-flit window of one slab from its store, the first time any
// of them parks or recalls a flit (ivc is the VC about to): a router that
// never does takes nothing, one that does takes one slab, however many of
// its VCs ever do. The slab's element type is the window, so its size is
// the same for every router and its ordinal in the store holds whichever
// router parks first. No queue held more than NACKWindow flits in any run
// measured; the windows are capacity-capped, so one that outgrows its
// window moves to storage of its own instead of writing into a
// neighbour's.
func (r *Router) fitPending(ivc *inputVC) {
	if cap(ivc.pending) > 0 {
		return
	}
	windows := sim.Make[[link.NACKWindow]flit.Flit](r.slabs(), len(r.arena))
	for i := range r.arena {
		if v := &r.arena[i]; cap(v.pending) == 0 {
			v.pending = windows[i][:0]
		}
	}
}

// slabs returns the store this router grows its buffers in: its
// transmitters' (link.Transmitter.Slabs); nil while it has none.
func (r *Router) slabs() *sim.Slabs {
	if r.outAttached == 0 {
		return nil
	}
	return r.out[bits.TrailingZeros8(r.outAttached)].tx.Slabs()
}

// blockedFor returns how many cycles this VC has gone without emitting a
// flit while holding at least one.
func (v *inputVC) blockedFor(cycle uint64) uint64 {
	if v.state == vcIdle || v.occupied() == 0 {
		return 0
	}
	if cycle < v.lastProgress {
		return 0
	}
	return cycle - v.lastProgress
}

// outputVC tracks one output virtual channel's wormhole reservation.
type outputVC struct {
	busy    bool
	inPort  topology.Port
	inVC    int
	corrupt bool // AC-off ablation: binding damaged by an uncaught VA fault
}

// outputPort is the transmitter side of one physical channel.
type outputPort struct {
	port topology.Port
	tx   *link.Transmitter
	vcs  []outputVC
	// saRR rotates switch-allocation priority across (inPort, inVC)
	// requesters for fairness.
	saRR int
	// downstreamRecovering blocks new wormhole creation while the node at
	// the far end runs deadlock recovery (§3.2.1).
	downstreamRecovering bool
}

// freeVC returns the lowest-index free output VC at or after the rotor,
// or -1.
func (o *outputPort) freeVC(rotor int) int {
	n := len(o.vcs)
	for i := 0; i < n; i++ {
		v := (rotor + i) % n
		if !o.vcs[v].busy {
			return v
		}
	}
	return -1
}
