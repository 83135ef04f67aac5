package link

import (
	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
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

	// Receive's hand-off to NextControl and NextData: how many checked
	// arrivals are still on the wire, how many accepted controls among
	// them are still to be handed out, and where NextControl looks next.
	arrived int
	ctrls   int
	ctrlAt  int

	// Scratch buffers backing ReceiveAll's return values, reused across
	// calls; untouched, and never allocated, by Receive and Next*.
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

// emit publishes one of this receiver's events: a correction, a NACK
// (aux its kind) or a drop (aux its reason).
func (r *Receiver) emit(kind trace.Kind, cycle uint64, vc int, pid uint64, seq uint8, aux uint64) {
	if r.bus.Enabled() {
		r.bus.Emit(trace.Event{
			Cycle: cycle, Kind: kind, Node: r.traceNode, Port: r.tracePort,
			VC: int8(vc), PID: pid, Seq: seq, Aux: aux,
		})
	}
}

// NewReceiver creates the receiving side of a channel with vcs virtual
// channels under the given protection scheme.
func NewReceiver(ch *Channel, vcs int, protection Protection, events *stats.Events, counters *fault.Counters) *Receiver {
	return &NewReceivers(nil, 1, func(int) *Channel { return ch }, vcs, protection, events, counters)[0]
}

// NewReceivers creates n receivers, receiver i on ch(i), in two slabs
// from s (sim.Make): the receivers are one slice, and their drop windows
// capacity-capped windows of one arena.
func NewReceivers(s *sim.Slabs, n int, ch func(i int) *Channel, vcs int, protection Protection, events *stats.Events, counters *fault.Counters) []Receiver {
	rs := sim.Make[Receiver](s, n)
	drops := sim.Make[uint64](s, n*vcs)
	for i := range rs {
		rs[i] = Receiver{
			ch:         ch(i),
			protection: protection,
			dropUntil:  drops[i*vcs : (i+1)*vcs : (i+1)*vcs],
			events:     events,
			counters:   counters,
		}
	}
	return rs
}

// SetAccounts has the receiver charge its events and fault counts to
// events and counters (its shard's) instead of the ones it was made with.
func (r *Receiver) SetAccounts(events *stats.Events, counters *fault.Counters) {
	r.events, r.counters = events, counters
}

// Channel returns the receiver's channel (hook installation, invariant
// inspection).
func (r *Receiver) Channel() *Channel { return r.ch }

// void marks a wire slot whose arrival the receiver rejected: the zero
// Type, which no flit carries (package flit), so NextControl and NextData
// pass over it.
const void flit.Type = 0

// Receive error-checks every arrival visible this cycle, in arrival order
// and in place in its wire slot: a correction is written back to the
// slot, a corrupted VC id is clamped there, and a rejected arrival's slot
// is voided, its credit and NACK already raised. Nothing is copied and
// nothing leaves the wire yet; NextControl and then NextData hand out
// what was accepted, one flit at a time. At most one data flit per cycle
// can be accepted (the transmitter owns the physical channel), but
// control flits (probes/activations) may share a cycle with it; they
// bypass buffers and credits.
func (r *Receiver) Receive(cycle uint64) {
	n, ctrls := 0, 0
	for f := r.ch.flits.PeekSlot(0); f != nil; f = r.ch.flits.PeekSlot(n) {
		if r.check(f, cycle) {
			ctrls++
		}
		n++
	}
	r.arrived, r.ctrls, r.ctrlAt = n, ctrls, 0
}

// NextControl returns the next control flit the last Receive accepted,
// still in its wire slot, or nil when there is none left. The controls
// come first because they always have: a router handles a cycle's probes
// and activations before it buffers the cycle's data.
func (r *Receiver) NextControl() *flit.Flit {
	for r.ctrls > 0 {
		f := r.ch.flits.PeekSlot(r.ctrlAt)
		r.ctrlAt++
		if f.Type != void && !f.IsData() {
			r.ctrls--
			return f
		}
	}
	return nil
}

// NextData takes the last Receive's arrivals off the wire up to and
// including the next accepted data flit, and returns that flit in its
// wire slot (good until the sender's next push: through the caller's
// tick, see sim.Pipe.PopSlot), or nil once the arrivals are used up. A
// caller must drain it: it is what empties the wire, and NextControl
// reads only what is still on it.
func (r *Receiver) NextData() *flit.Flit {
	for r.arrived > 0 {
		r.arrived--
		if f := r.ch.flits.PopSlot(); f.IsData() {
			return f
		}
	}
	return nil
}

// ReceiveAll is Receive, NextControl and NextData for a caller that wants
// the cycle's accepted flits by value. The returned slices alias scratch
// buffers valid only until the next ReceiveAll on this receiver.
func (r *Receiver) ReceiveAll(cycle uint64) (data []flit.Flit, ctrl []flit.Flit) {
	r.Receive(cycle)
	data, ctrl = r.dataScratch[:0], r.ctrlScratch[:0]
	for f := r.NextControl(); f != nil; f = r.NextControl() {
		ctrl = append(ctrl, *f)
	}
	for f := r.NextData(); f != nil; f = r.NextData() {
		data = append(data, *f)
	}
	r.dataScratch, r.ctrlScratch = data, ctrl
	return data, ctrl
}

// check error-checks one arrival in its wire slot as the protection
// policy directs (SiteHop), voiding the slot if the arrival is rejected.
// It reports whether the slot now holds an accepted control flit.
func (r *Receiver) check(f *flit.Flit, cycle uint64) (isCtrl bool) {
	kind := KindOf(f.Type)
	vc, pid, seq := -1, uint64(0), uint8(0)
	if kind != KindControl {
		vc, pid, seq = int(f.VC), uint64(f.PID), f.Seq
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
			r.ch.sendCredit(uint8(vc), r.events)
			r.emit(trace.FlitDropped, cycle, vc, pid, seq, trace.DropWindow)
			f.Type = void
			return false
		}
	}
	if !r.protection.Decodes(kind, SiteHop) {
		return false
	}
	r.events.ECCDecodes++
	word, check, out := ecc.Decode(f.Word, f.Check)
	switch r.protection.Act(kind, SiteHop, out) {
	case Correct:
		r.events.ECCCorrections++
		r.counters.AddCorrected(fault.LinkError)
		r.emit(trace.ECCCorrected, cycle, vc, pid, seq, 0)
		if r.verify != nil {
			r.verify(cycle, vc, pid, word, check)
		}
		f.Word, f.Check = word, check
	case Retransmit:
		r.ForceDrop(vc, cycle, NACKLinkError, pid, seq)
		f.Type = void
	case Drop:
		f.Type = void
	}
	return kind == KindControl && f.Type != void
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
	r.ch.sendCredit(uint8(vc), r.events)
}

// SendNACK lets the router raise non-link NACKs (AC invalidation,
// misroute reports) on this receiver's backward handshake wires.
func (r *Receiver) SendNACK(vc int, kind NACKKind) {
	r.ch.sendNACK(uint8(vc), kind, r.events, r.counters)
}

// ForceDrop rejects a data flit and has the hop replay it: for an
// uncorrectable link error (NACKLinkError, the policy's Retransmit), or
// for the router's misroute-consistency check of §4.2 on a flit the ECC
// accepted. The flit's slot is returned, the stated NACK is raised, and
// the drop window opens so the in-flight flits behind it are discarded.
// pid and seq identify the rejected flit for the event stream.
func (r *Receiver) ForceDrop(vc int, cycle uint64, kind NACKKind, pid uint64, seq uint8) {
	reason := trace.DropMisroute
	if kind == NACKLinkError {
		r.counters.AddCorrected(fault.LinkError)
		reason = trace.DropNACK
	}
	r.counters.DroppedFlits++
	r.ch.sendCredit(uint8(vc), r.events)
	r.ch.sendNACK(uint8(vc), kind, r.events, r.counters)
	r.dropUntil[vc] = cycle + dropWindow
	r.emit(trace.NACKSent, cycle, vc, 0, 0, uint64(kind))
	r.emit(trace.FlitDropped, cycle, vc, pid, seq, reason)
}
