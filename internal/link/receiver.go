package link

import (
	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/stats"
	"ftnoc/internal/trace"
)

// dropWindow is how many cycles after an uncorrectable error the receiver
// keeps dropping arrivals on the affected VC: exactly the two in-flight
// flits the transmitter sent before the NACK reached it (Fig. 4).
const dropWindow = 2

// Receiver is the receiving side of a channel for one input port: the
// error detection/correction unit of Fig. 1 plus the per-VC drop windows
// of the HBH protocol. Accepted flits are handed to the router for
// buffering; the router returns credits through ReturnCredit as buffer
// slots free.
type Receiver struct {
	ch         *Channel
	protection Protection
	dropUntil  []uint64
	events     *stats.Events
	counters   *fault.Counters

	// Scratch buffers backing ReceiveAll's return values, reused across
	// cycles; callers consume the slices within the cycle.
	dataScratch []flit.Flit
	ctrlScratch []flit.Flit

	// Event-bus identity (set by SetTrace; bus may be nil).
	bus       *trace.Bus
	traceNode int32
	tracePort int8

	// verify, when non-nil, re-checks every SEC/DED-corrected codeword
	// (invariant: corrected flits re-verify clean). Installed by the
	// network when an invariant checker is attached.
	verify func(cycle uint64, vc int, pid uint64, word uint64, check uint8)

	// skipCreditEvery, when n > 0, silently swallows every nth
	// ReturnCredit call — a deliberately broken credit loop used by the
	// invariant checker's regression tests to prove credit-conservation
	// violations are caught. Never set outside tests.
	skipCreditEvery int
	creditCalls     int
}

// SetVerifier installs the post-correction audit hook: fn runs after
// every single-bit correction with the corrected codeword, letting an
// invariant checker assert the repair actually decodes clean.
func (r *Receiver) SetVerifier(fn func(cycle uint64, vc int, pid uint64, word uint64, check uint8)) {
	r.verify = fn
}

// SkipCreditEvery breaks the credit loop on purpose: every nth freed
// buffer slot is never reported back to the transmitter. Test hook for
// proving the invariant checker detects credit leaks; n <= 0 restores
// correct behaviour.
func (r *Receiver) SkipCreditEvery(n int) { r.skipCreditEvery = n }

// SetTrace attaches the structured event bus and this receiver's
// (node, port) identity for event attribution.
func (r *Receiver) SetTrace(bus *trace.Bus, node int32, port int8) {
	r.bus, r.traceNode, r.tracePort = bus, node, port
}

// emitECCCorrected publishes a single-bit correction event.
func (r *Receiver) emitECCCorrected(cycle uint64, vc int8, pid uint64, seq uint8) {
	if r.bus.Enabled() {
		r.bus.Emit(trace.Event{
			Cycle: cycle, Kind: trace.ECCCorrected,
			Node: r.traceNode, Port: r.tracePort, VC: vc, PID: pid, Seq: seq,
		})
	}
}

// NewReceiver creates the receiving side of a channel with vcs virtual
// channels under the given protection scheme.
func NewReceiver(ch *Channel, vcs int, protection Protection, events *stats.Events, counters *fault.Counters) *Receiver {
	return &Receiver{
		ch:         ch,
		protection: protection,
		dropUntil:  make([]uint64, vcs),
		events:     events,
		counters:   counters,
	}
}

// Channel returns the receiver's channel (hook installation, invariant
// inspection).
func (r *Receiver) Channel() *Channel { return r.ch }

// Protection returns the receiver's link-error handling scheme.
func (r *Receiver) Protection() Protection { return r.protection }

// ReceiveAll processes every arrival visible this cycle. At most one data
// flit per cycle can be accepted (the transmitter owns the physical
// channel), but control flits (probes/activations) may share a cycle with
// it; they bypass buffers and credits. The returned slices alias internal
// scratch buffers valid only until the next ReceiveAll on this receiver.
func (r *Receiver) ReceiveAll(cycle uint64) (data []flit.Flit, ctrl []flit.Flit) {
	data = r.dataScratch[:0]
	ctrl = r.ctrlScratch[:0]
	for {
		f, got := r.ch.Recv()
		if !got {
			break
		}
		if d, ok, isCtrl := r.receiveOne(f, cycle); isCtrl {
			ctrl = append(ctrl, d)
		} else if ok {
			data = append(data, d)
		}
	}
	r.dataScratch, r.ctrlScratch = data, ctrl
	return data, ctrl
}

// receiveOne classifies and error-checks a single arrival. A control
// flit comes back with isCtrl set (ok is then meaningless); returning it
// by value rather than by pointer keeps the flit on the caller's stack.
func (r *Receiver) receiveOne(f flit.Flit, cycle uint64) (res flit.Flit, ok, isCtrl bool) {
	if !f.IsData() {
		// Control flit: always decode (it travels under the error
		// correcting blanket, §3.2.2); an uncorrectable one is dropped
		// and the sender's threshold timer will retry.
		word, check, out := r.decode(f)
		r.events.ECCDecodes++
		switch out {
		case ecc.Detected:
			return flit.Flit{}, false, false
		case ecc.Corrected:
			r.events.ECCCorrections++
			r.counters.AddCorrected(fault.LinkError)
			r.emitECCCorrected(cycle, -1, 0, 0)
			if r.verify != nil {
				r.verify(cycle, -1, 0, word, check)
			}
		}
		f.Word, f.Check = word, check
		return f, false, true
	}

	vc := int(f.VC)
	if vc >= len(r.dropUntil) {
		// A corrupted VC identifier in the sideband; treat as an
		// uncorrectable arrival on VC 0.
		vc = 0
		f.VC = 0
	}
	if r.dropUntil[vc] >= cycle && r.dropUntil[vc] != 0 {
		// Inside the drop window: this flit was sent before the NACK
		// reached the transmitter and will be replayed. Return its
		// reserved slot.
		r.counters.DroppedFlits++
		r.ch.SendCredit(uint8(vc))
		r.emitDrop(cycle, vc, uint64(f.PID), f.Seq, trace.DropWindow)
		return flit.Flit{}, false, false
	}

	checkIt := r.protection != E2E || f.Type == flit.Head
	if !checkIt {
		// E2E data flit: no hop-by-hop check; corruption (if any) rides
		// along to the destination.
		return f, true, false
	}

	r.events.ECCDecodes++
	word, check, out := ecc.Decode(f.Word, f.Check)
	switch out {
	case ecc.OK:
		return f, true, false
	case ecc.Corrected:
		if r.protection == E2E {
			// E2E provides detection only: even a single-bit header error
			// goes down the retransmission path.
			r.nack(vc, cycle, f)
			return flit.Flit{}, false, false
		}
		r.events.ECCCorrections++
		r.counters.AddCorrected(fault.LinkError)
		r.emitECCCorrected(cycle, int8(vc), uint64(f.PID), f.Seq)
		if r.verify != nil {
			r.verify(cycle, vc, uint64(f.PID), word, check)
		}
		f.Word, f.Check = word, check
		return f, true, false
	default: // ecc.Detected
		if r.protection == FEC && f.Type != flit.Head {
			// FEC cannot repair a double error in a data flit; it is
			// delivered corrupt and caught end-to-end.
			return f, true, false
		}
		r.nack(vc, cycle, f)
		return flit.Flit{}, false, false
	}
}

// nack initiates hop-by-hop retransmission for a VC: drop the corrupt
// flit (returning its slot), open the drop window for the two in-flight
// flits behind it, and raise the NACK handshake.
func (r *Receiver) nack(vc int, cycle uint64, f flit.Flit) {
	r.counters.DroppedFlits++
	r.counters.AddCorrected(fault.LinkError)
	r.ch.SendCredit(uint8(vc))
	r.ch.SendNACK(uint8(vc), NACKLinkError)
	r.dropUntil[vc] = cycle + dropWindow
	r.emitNACK(cycle, vc, NACKLinkError)
	r.emitDrop(cycle, vc, uint64(f.PID), f.Seq, trace.DropNACK)
}

// emitNACK publishes a NACK handshake event.
func (r *Receiver) emitNACK(cycle uint64, vc int, kind NACKKind) {
	if r.bus.Enabled() {
		r.bus.Emit(trace.Event{
			Cycle: cycle, Kind: trace.NACKSent,
			Node: r.traceNode, Port: r.tracePort, VC: int8(vc), Aux: uint64(kind),
		})
	}
}

// emitDrop publishes a flit-discard event with its reason code.
func (r *Receiver) emitDrop(cycle uint64, vc int, pid uint64, seq uint8, reason uint64) {
	if r.bus.Enabled() {
		r.bus.Emit(trace.Event{
			Cycle: cycle, Kind: trace.FlitDropped,
			Node: r.traceNode, Port: r.tracePort, VC: int8(vc),
			PID: pid, Seq: seq, Aux: reason,
		})
	}
}

// decode applies SEC/DED to a flit and returns the (possibly corrected)
// word/check pair.
func (r *Receiver) decode(f flit.Flit) (uint64, uint8, ecc.Outcome) {
	return ecc.Decode(f.Word, f.Check)
}

// ReturnCredit hands a freed buffer slot back to the transmitter. The
// router calls this when a flit leaves the input VC buffer.
func (r *Receiver) ReturnCredit(vc int) {
	if r.skipCreditEvery > 0 {
		r.creditCalls++
		if r.creditCalls%r.skipCreditEvery == 0 {
			return // deliberate leak (see SkipCreditEvery)
		}
	}
	r.ch.SendCredit(uint8(vc))
}

// SendNACK lets the router raise non-link NACKs (AC invalidation,
// misroute reports) on this receiver's backward handshake wires.
func (r *Receiver) SendNACK(vc int, kind NACKKind) { r.ch.SendNACK(uint8(vc), kind) }

// ForceDrop lets the router reject a flit the ECC accepted — the
// misroute-consistency check of §4.2. The flit's slot is returned, the
// stated NACK is raised, and the drop window opens so the in-flight flits
// behind it are discarded like any retransmission episode. pid and seq
// identify the rejected flit for the event stream.
func (r *Receiver) ForceDrop(vc int, cycle uint64, kind NACKKind, pid uint64, seq uint8) {
	r.counters.DroppedFlits++
	r.ch.SendCredit(uint8(vc))
	r.ch.SendNACK(uint8(vc), kind)
	r.dropUntil[vc] = cycle + dropWindow
	r.emitNACK(cycle, vc, kind)
	r.emitDrop(cycle, vc, pid, seq, trace.DropMisroute)
}
