package network

import (
	"fmt"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/topology"
)

// creditLoop is one credit-conservation audit unit: a transmitter, its
// channel, and the downstream buffer its credits meter. The flow-control
// law — at every cycle boundary, for every VC —
//
//	credits + credits-in-flight + data-in-flight + downstream-buffered == BufDepth
//
// holds because every send pairs a credit decrement with a wire copy,
// and every arrival either occupies a credited buffer slot or returns
// its credit (drop windows, NACK drops, force-drops, parking, ejection).
// Replay/shifter copies and recovery-parked flits hold no credits. The
// audit reads the transmitter's counter as it stands (FoldedCredits) and
// the channel's counters beside it, taking nothing: a credit is counted
// once wherever it is, so the sum does not depend on whether the
// transmitter has folded it in yet.
type creditLoop struct {
	tx   *link.Transmitter
	rx   *link.Receiver // receiving end (tests reach its fault hooks here)
	ch   *link.Channel
	node int32 // transmitter's node, for violation context
	port int8  // transmitter's port
	// Downstream side: a router input VC buffer, or a PE (which consumes
	// arrivals and returns credits within the same tick, so it holds no
	// buffer term).
	downNode int
	downPort topology.Port
	toPE     bool
	// fromPE marks a PE's injection channel: the transmitter end belongs
	// to the PE, which polls it every tick and keeps no port masks.
	fromPE bool
}

// watchLink registers a channel with the invariant machinery: its credit
// loop joins the per-cycle audit, and the receiver gets the
// ECC-consistency verifier (every corrected codeword must re-decode
// clean — a correction that does not is a miscorrection). Called from
// New only when a checker is attached.
func (n *Network) watchLink(tx *link.Transmitter, rx *link.Receiver, ch *link.Channel,
	node int32, port int8, downNode int, downPort topology.Port, toPE, fromPE bool) {
	n.loops = append(n.loops, creditLoop{
		tx: tx, rx: rx, ch: ch, node: node, port: port,
		downNode: downNode, downPort: downPort, toPE: toPE, fromPE: fromPE,
	})
	rxNode, rxPort := int32(downNode), int8(downPort)
	inv := n.inv
	rx.SetVerifier(func(cycle uint64, vc int, pid uint64, word uint64, check uint8) {
		if _, _, out := ecc.Decode(word, check); out != ecc.OK {
			inv.Report(invariant.Violation{
				Check: "ecc", Cycle: cycle, Node: rxNode, Port: rxPort, VC: int8(vc), PID: pid,
				Msg: fmt.Sprintf("corrected codeword %#x/%#x does not re-decode clean (outcome %d)", word, check, out),
			})
		}
	})
}

// checkState is the per-cycle structural audit, run at the cycle
// boundary after kernel.Step (clock = the next cycle to tick, when the
// step's deliveries have been made): credit conservation on every loop,
// port-mask soundness at both router ends of every loop (what the wires
// and the transmitter actually hold against the mask bits that drive
// the routers' ticks), each router's internal consistency (VA bindings,
// occupancy counts, retransmission-buffer windows, probe-memory bounds),
// the allocator masks against the VC states they summarise,
// quiescence safety — a kernel-asleep actor
// must still satisfy its own Quiescent predicate, proving idle-skipping
// never slept a live component — and recovery-episode liveness.
func (n *Network) checkState(clock uint64) {
	inv := n.inv
	for _, lp := range n.loops {
		for vc := 0; vc < n.cfg.VCs; vc++ {
			credits, onWire, data := lp.tx.FoldedCredits(vc), lp.ch.InFlightCredits(vc), lp.ch.InFlightData(vc)
			buffered := 0
			if !lp.toPE {
				buffered = n.routers[lp.downNode].VCBufLen(lp.downPort, vc)
			}
			if credits+onWire+data+buffered != n.cfg.BufDepth {
				inv.Report(invariant.Violation{
					Check: "credits", Cycle: clock, Node: lp.node, Port: lp.port, VC: int8(vc),
					Msg: fmt.Sprintf("credits %d + credit-wire %d + data-wire %d + buffered %d != depth %d",
						credits, onWire, data, buffered, n.cfg.BufDepth),
				})
			}
		}
		if !lp.fromPE {
			_, pending, replay := n.routers[lp.node].PortMarks(topology.Port(lp.port))
			inv.CheckPortMarks(clock, lp.node, lp.port, invariant.PortMarks{
				TxPending: pending, NACKs: lp.ch.VisibleNACKs(),
				TxReplay: replay, Replay: lp.tx.PendingReplay(),
			})
		}
		if !lp.toPE {
			pending, _, _ := n.routers[lp.downNode].PortMarks(lp.downPort)
			inv.CheckPortMarks(clock, int32(lp.downNode), int8(lp.downPort), invariant.PortMarks{
				RxPending: pending, Flits: lp.ch.VisibleFlits(),
			})
		}
	}
	for i, r := range n.routers {
		if s := r.AuditInvariants(clock); s != "" {
			inv.Report(invariant.Violation{
				Check: "router-state", Cycle: clock, Node: int32(i), Port: -1, VC: -1, Msg: s,
			})
		}
		if s := r.AuditVCMasks(); s != "" {
			inv.Report(invariant.Violation{
				Check: "vc-masks", Cycle: clock, Node: int32(i), Port: -1, VC: -1, Msg: s,
			})
		}
		if n.kernel.Asleep(n.routerH[i]) {
			if ok, _ := r.Quiescent(clock); !ok {
				inv.Report(invariant.Violation{
					Check: "quiescence", Cycle: clock, Node: int32(i), Port: -1, VC: -1,
					Msg: "kernel holds router asleep but its Quiescent predicate is false",
				})
			}
		}
	}
	for i, p := range n.pes {
		if n.kernel.Asleep(n.peH[i]) {
			if ok, _ := p.Quiescent(clock); !ok {
				inv.Report(invariant.Violation{
					Check: "quiescence", Cycle: clock, Node: int32(i), Port: -1, VC: -1,
					Msg: "kernel holds PE asleep but its Quiescent predicate is false",
				})
			}
		}
	}
	inv.CheckEpisodes(clock)
}

// residentPIDs sweeps every place a packet's flits can physically be —
// router VC buffers and parked queues, transmitter replay/shifters,
// channel wires, PE injection queues, staged control packets, retention
// copies and half-reassembled sinks — so Finalize can tell a stranded
// packet from a vanished one.
func (n *Network) residentPIDs() map[uint64]bool {
	res := make(map[uint64]bool)
	add := func(f flit.Flit) { res[uint64(f.PID)] = true }
	for _, r := range n.routers {
		r.EachResidentFlit(add)
		r.EachRetainedFlit(add)
	}
	for _, lp := range n.loops {
		lp.ch.EachDataFlit(add)
		lp.tx.EachRetained(add)
	}
	for _, p := range n.pes {
		p.eachResidentPID(func(pid uint64) { res[pid] = true })
	}
	return res
}
