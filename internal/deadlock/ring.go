package deadlock

import (
	"fmt"
	"strings"

	"ftnoc/internal/trace"
)

// RingFlit is one flit in the ring model, identified the way Fig. 10
// labels them: packet letter + 1-based sequence, e.g. a1..a4.
type RingFlit struct {
	Packet byte
	Seq    int
	// Tail marks the last flit of its packet.
	Tail bool
}

// String implements fmt.Stringer (Fig. 10 notation).
func (f RingFlit) String() string { return fmt.Sprintf("%c%d", f.Packet, f.Seq) }

// sentCopy is a transmitted flit still occupying a retransmission-buffer
// slot until its NACK window closes (the thick-square flits of Fig. 10).
type sentCopy struct {
	f    RingFlit
	sent int
}

// nackWindow mirrors the link layer: a sent copy occupies its shifter
// slot for 3 steps.
const nackWindow = 3

// RingNode is one node of the Fig. 10 ring: a FIFO transmission buffer of
// capacity T and a barrel-shifter retransmission buffer of capacity R
// shared between parked (unsent) flits and sent copies.
type RingNode struct {
	T, R   int
	Trans  []RingFlit
	Parked []RingFlit
	sent   []sentCopy
}

// shifterUsed is the current occupancy of the retransmission buffer.
func (n *RingNode) shifterUsed() int { return len(n.Parked) + len(n.sent) }

// Occupancy returns flits resident at this node (transmission buffer plus
// parked flits; sent copies are duplicates, not residents).
func (n *RingNode) Occupancy() int { return len(n.Trans) + len(n.Parked) }

// Ring is a closed cycle of nodes, each forwarding to the next: the
// distilled deadlock configuration of Figs. 10 and 11. Node i sends to
// node (i+1) mod n. A flit whose packet has "escaped" leaves the ring at
// its exit node instead of re-entering (modelling a packet moving out of
// the deadlock configuration).
type Ring struct {
	Nodes []*RingNode
	// Exit, if non-negative, drains every flit arriving at that node
	// instead of buffering it: the packet that breaks the deadlock by
	// leaving the cyclic dependency.
	Exit int
	// Bus, when non-nil and enabled, receives structured events for every
	// ring action using the same taxonomy as the full simulator: parking
	// is FlitParked, transmission is FlitDequeued + FlitBuffered (or
	// FlitEjected through the exit), recovery onset is RecoveryBegin.
	// Cycle is the step count; Node the ring index; PID encodes the
	// packet letter.
	Bus *trace.Bus

	step      int
	recovery  bool
	delivered int
}

// NewRing builds a ring of n nodes with uniform buffer sizes.
func NewRing(n, t, r int) *Ring {
	if n < 2 || t < 1 || r < 0 {
		panic("deadlock: ring needs >=2 nodes, t>=1, r>=0")
	}
	ring := &Ring{Exit: -1}
	for i := 0; i < n; i++ {
		ring.Nodes = append(ring.Nodes, &RingNode{T: t, R: r})
	}
	return ring
}

// Fill loads node i's transmission buffer with a full packet of m flits
// labelled 'a'+i, as in step 1 of Fig. 10.
func (r *Ring) Fill(m int) {
	for i, n := range r.Nodes {
		for s := 1; s <= m; s++ {
			n.Trans = append(n.Trans, RingFlit{Packet: byte('a' + i), Seq: s, Tail: s == m})
		}
	}
}

// Delivered reports flits that left the ring via the exit node.
func (r *Ring) Delivered() int { return r.delivered }

// StartRecovery switches every node into deadlock-recovery mode: the
// initial lateral move of step 2 in Fig. 10 happens on the next Step.
func (r *Ring) StartRecovery() {
	r.recovery = true
	if r.Bus.Enabled() {
		r.Bus.Emit(trace.Event{
			Cycle: uint64(r.step), Kind: trace.RecoveryBegin, Node: -1, Port: -1, VC: -1,
		})
	}
}

// emit publishes one ring event (kind, node, flit) if a bus is attached.
func (r *Ring) emit(k trace.Kind, node int, f RingFlit, aux uint64) {
	if !r.Bus.Enabled() {
		return
	}
	r.Bus.Emit(trace.Event{
		Cycle: uint64(r.step), Kind: k, Node: int32(node), Port: -1, VC: -1,
		Seq: uint8(f.Seq), PID: uint64(f.Packet), Aux: aux,
	})
}

// Blocked reports whether no flit can move: every transmission buffer is
// full and no parked flit has downstream space.
func (r *Ring) Blocked() bool {
	for i, n := range r.Nodes {
		next := r.Nodes[(i+1)%len(r.Nodes)]
		if r.Exit == (i+1)%len(r.Nodes) {
			if len(n.Trans) > 0 || len(n.Parked) > 0 {
				return false
			}
			continue
		}
		if len(next.Trans) < next.T {
			if len(n.Parked) > 0 || len(n.Trans) > 0 {
				return false
			}
		}
	}
	return true
}

// Step advances the ring by one cycle, applying Fig. 10's mechanics
// synchronously: (1) expire sent copies whose window closed, (2) every
// node with downstream space transmits its front flit (parked flits
// first), (3) in recovery mode, nodes park front flits into free shifter
// slots, creating space for the preceding node.
func (r *Ring) Step() {
	r.step++
	n := len(r.Nodes)

	// Phase 1: expire sent copies (the barrel shift off the end).
	for _, node := range r.Nodes {
		for len(node.sent) > 0 && r.step >= node.sent[0].sent+nackWindow {
			node.sent = node.sent[1:]
		}
	}

	// Phase 2: decide transmissions against the pre-step buffer state so
	// all nodes act simultaneously, then apply.
	type move struct {
		from int
		f    RingFlit
	}
	var moves []move
	space := make([]int, n)
	for i, node := range r.Nodes {
		space[i] = node.T - len(node.Trans)
	}
	for i, node := range r.Nodes {
		dst := (i + 1) % n
		var f RingFlit
		switch {
		case len(node.Parked) > 0:
			f = node.Parked[0]
		case len(node.Trans) > 0:
			f = node.Trans[0]
		default:
			continue
		}
		if dst != r.Exit && space[dst] <= 0 {
			continue
		}
		moves = append(moves, move{from: i, f: f})
	}
	for _, mv := range moves {
		node := r.Nodes[mv.from]
		if len(node.Parked) > 0 {
			node.Parked = node.Parked[1:]
			// A transmitted parked flit moves to the back of the shifter
			// as a sent copy (Fig. 10 steps 3-5).
			node.sent = append(node.sent, sentCopy{f: mv.f, sent: r.step})
			r.emit(trace.FlitDequeued, mv.from, mv.f, 0)
		} else {
			node.Trans = node.Trans[1:]
			node.sent = append(node.sent, sentCopy{f: mv.f, sent: r.step})
			r.emit(trace.FlitDequeued, mv.from, mv.f, trace.DequeuedFromBuffer)
		}
		dst := (mv.from + 1) % n
		if dst == r.Exit {
			r.delivered++
			r.emit(trace.FlitEjected, dst, mv.f, 0)
			continue
		}
		r.Nodes[dst].Trans = append(r.Nodes[dst].Trans, mv.f)
		r.emit(trace.FlitBuffered, dst, mv.f, 0)
	}

	// Phase 3: recovery parking into free shifter slots.
	if !r.recovery {
		return
	}
	for i, node := range r.Nodes {
		dst := (i + 1) % n
		if dst == r.Exit {
			continue // this node can always transmit; no need to park
		}
		for len(node.Trans) > 0 && node.shifterUsed() < node.R {
			f := node.Trans[0]
			node.Parked = append(node.Parked, f)
			node.Trans = node.Trans[1:]
			r.emit(trace.FlitParked, i, f, 0)
		}
	}
}

// Run steps until every flit has been delivered through the exit or the
// step limit is hit; it returns true on full drainage.
func (r *Ring) Run(limit int) bool {
	for s := 0; s < limit; s++ {
		if r.totalResident() == 0 {
			return true
		}
		r.Step()
	}
	return r.totalResident() == 0
}

func (r *Ring) totalResident() int {
	total := 0
	for _, n := range r.Nodes {
		total += n.Occupancy()
	}
	return total
}

// Snapshot renders the ring state in Fig. 10's style, for trace tests and
// the example program.
func (r *Ring) Snapshot() string {
	var b strings.Builder
	for i, n := range r.Nodes {
		fmt.Fprintf(&b, "node%d T:%v P:%v S:%d  ", i, n.Trans, n.Parked, len(n.sent))
		_ = i
	}
	return strings.TrimSpace(b.String())
}
