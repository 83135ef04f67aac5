package link

import (
	"fmt"

	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
	"ftnoc/internal/trace"
)

// Transmitter is the sending side of Fig. 3 for one output port: per-VC
// credit counters, per-VC barrel-shifter retransmission buffers, and the
// replay queue that services NACKs. The FIFO "transmission buffer" of
// Fig. 3 is the upstream input-VC buffer feeding this port; the router
// owns it.
type Transmitter struct {
	ch  *Channel
	vcs []txVC
	// inShifters is the summed occupancy of every VC's shifter, maintained
	// where entries are captured, expired and drained, so occupancy and
	// "anything held?" are O(1) for per-cycle samplers and port masks.
	inShifters int
	// replay[replayHead:] is the pending replay queue; the backing array
	// is recycled once it drains.
	replay     []flit.Flit
	replayHead int
	events     *stats.Events
	counters   *fault.Counters

	// Retransmission-buffer soft errors (§4.5).
	rbRate      float64
	rbDuplicate bool
	rbRNG       *sim.RNG

	// Event-bus identity (set by SetTrace; bus may be nil).
	bus       *trace.Bus
	traceNode int32
	tracePort int8
}

// txVC is one virtual channel's sending state: its credit counter beside
// its barrel shifter, so a send touches one cache line.
type txVC struct {
	credits int
	shifter RetransBuffer
}

// SetTrace attaches the structured event bus and this transmitter's
// (node, port) identity for event attribution.
func (t *Transmitter) SetTrace(bus *trace.Bus, node int32, port int8) {
	t.bus, t.traceNode, t.tracePort = bus, node, port
}

// SetRetransBufFaults enables soft errors inside the retransmission
// buffers at the given per-capture rate. With duplicate buffers (§4.5)
// the second copy masks every upset; without them the stored copy is
// corrupted and replaying it can never succeed.
func (t *Transmitter) SetRetransBufFaults(rate float64, duplicate bool, rng *sim.RNG) {
	if rate < 0 || rate > 1 {
		panic("link: retrans-buffer fault rate must be in [0,1]")
	}
	t.rbRate = rate
	t.rbDuplicate = duplicate
	t.rbRNG = rng
}

// NewTransmitter creates the sending side of a channel with vcs virtual
// channels, each granted downstreamCap credits and a shifterDepth-deep
// retransmission buffer (NACKWindow for the paper's scheme; 2*NACKWindow
// with the duplicate-buffer option of §4.5). The per-VC state is one
// slice and the shifter rings are windows of one arena (as NewFIFOs does
// for the input buffers): three allocations per transmitter however many
// VCs it has.
func NewTransmitter(ch *Channel, vcs, downstreamCap, shifterDepth int, events *stats.Events, counters *fault.Counters) *Transmitter {
	if vcs < 1 || downstreamCap < 1 {
		panic("link: transmitter needs >=1 VC and >=1 credit")
	}
	if shifterDepth < 1 {
		panic("link: retransmission buffer depth must be >= 1")
	}
	t := &Transmitter{
		ch:       ch,
		vcs:      make([]txVC, vcs),
		events:   events,
		counters: counters,
	}
	arena := make([]retransEntry, vcs*shifterDepth)
	for i := range t.vcs {
		t.vcs[i].credits = downstreamCap
		t.vcs[i].shifter = RetransBuffer{
			depth: shifterDepth,
			ring:  arena[i*shifterDepth : (i+1)*shifterDepth : (i+1)*shifterDepth],
		}
	}
	return t
}

// drainShifter moves a VC's retained flits onto dst, oldest first.
func (t *Transmitter) drainShifter(vc int, dst []flit.Flit) []flit.Flit {
	sh := &t.vcs[vc].shifter
	t.inShifters -= sh.Len()
	return sh.AppendDrain(dst)
}

// BeginCycle ingests the cycle's incoming handshakes: credits replenish
// counters; link-error NACKs drain the affected shifter into the replay
// queue. NACKs of other kinds (AC invalidations, misroute reports) are
// returned for the router to act on — their flits stay in the shifters
// until the router Recalls them. Must be called exactly once per cycle,
// before any send, and must be followed by ExpireShifters once the
// returned NACKs have been handled.
func (t *Transmitter) BeginCycle(cycle uint64) []NACK {
	var routerNACKs []NACK
	for _, n := range t.ch.RecvNACKs() {
		if n.Kind != NACKLinkError {
			routerNACKs = append(routerNACKs, n)
			continue
		}
		if int(n.VC) >= len(t.vcs) {
			continue // corrupted handshake naming a non-existent VC; drop
		}
		t.replay = t.drainShifter(int(n.VC), t.replay)
	}
	for _, c := range t.ch.RecvCredits() {
		if int(c.VC) < len(t.vcs) {
			t.vcs[c.VC].credits++
		}
	}
	return routerNACKs
}

// ExpireShifters frees retransmission-buffer slots whose NACK window has
// elapsed. It must run every cycle after BeginCycle's NACKs — including
// misroute NACKs, whose Recall must see the full window — have been
// processed, and before any send.
func (t *Transmitter) ExpireShifters(cycle uint64) {
	if t.inShifters == 0 {
		return
	}
	for i := range t.vcs {
		if sh := &t.vcs[i].shifter; !sh.Empty() {
			t.inShifters -= sh.Expire(cycle)
		}
	}
}

// Credits returns the free downstream slots for a VC.
func (t *Transmitter) Credits(vc int) int { return t.vcs[vc].credits }

// Held reports whether the transmitter still owes per-cycle service: a
// shifter entry awaiting expiry or a replay flit awaiting the wire. When
// false and no handshake is visible, BeginCycle, ExpireShifters and
// TickReplay are all no-ops.
func (t *Transmitter) Held() bool { return t.inShifters > 0 || t.HasReplay() }

// HasReplay reports whether NACKed flits are waiting to be re-sent; while
// true the router must not grant new flits to this port (replay has
// priority for the physical channel).
func (t *Transmitter) HasReplay() bool { return len(t.replay) > t.replayHead }

// TickReplay re-sends the oldest replay flit if one is ready and credited.
// It returns true if the port was used this cycle.
func (t *Transmitter) TickReplay(cycle uint64) bool {
	if !t.HasReplay() {
		return false
	}
	f := t.replay[t.replayHead]
	vc := int(f.VC)
	if t.vcs[vc].credits <= 0 {
		// The credits returned by the receiver's drops are still in
		// flight; the port idles this cycle but stays reserved.
		return true
	}
	t.replayHead++
	if t.replayHead == len(t.replay) {
		t.replay = t.replay[:0]
		t.replayHead = 0
	}
	t.sendOnWire(f, cycle)
	t.events.Retransmitted++
	t.counters.Retransmissions++
	if t.bus.Enabled() {
		t.bus.Emit(trace.Event{
			Cycle: cycle, Kind: trace.Retransmit,
			Node: t.traceNode, Port: t.tracePort, VC: int8(vc),
			PID: uint64(f.PID), Seq: f.Seq,
		})
	}
	return true
}

// Send transmits a data flit on the given VC, consuming a credit and
// capturing a clean copy in the VC's retransmission buffer. The caller
// must have checked Credits(vc) > 0 and HasReplay() == false.
func (t *Transmitter) Send(f flit.Flit, vc int, cycle uint64) {
	if t.vcs[vc].credits <= 0 {
		panic("link: send without credit")
	}
	if t.HasReplay() {
		panic("link: send while replay pending")
	}
	f.VC = uint8(vc)
	t.sendOnWire(f, cycle)
}

func (t *Transmitter) sendOnWire(f flit.Flit, cycle uint64) {
	tv := &t.vcs[f.VC]
	tv.credits--
	// Capture the clean copy before the wire corrupts it. A soft error in
	// the buffer itself (§4.5) corrupts the stored copy with two bit
	// flips — uncorrectable, so a replay of it is doomed. Duplicate
	// buffers hold a second copy that out-survives the single upset.
	stored := f
	if t.rbRate > 0 && t.rbRNG.Bool(t.rbRate) {
		t.counters.AddInjected(fault.RetransBufError)
		if t.rbDuplicate {
			t.counters.AddCorrected(fault.RetransBufError)
		} else {
			t.counters.AddUndetected(fault.RetransBufError)
			stored.Word = ecc.FlipDataBit(ecc.FlipDataBit(stored.Word, t.rbRNG.Intn(64)), (t.rbRNG.Intn(63)+17)%64)
		}
	}
	tv.shifter.Capture(stored, cycle)
	t.inShifters++
	t.events.RetransWrites++
	t.ch.Send(f)
}

// SendControl transmits a probe/activation flit. Control flits bypass the
// buffer/credit machinery (they feed the retransmission-buffer direct
// input of Fig. 3) and are not captured: a lost probe is retried by the
// blocked node's threshold timer.
func (t *Transmitter) SendControl(f flit.Flit) {
	t.events.Probes++
	t.ch.Send(f)
}

// EarliestExpiry returns the earliest cycle at which any retransmission-
// buffer entry on this port expires (oldest capture + NACKWindow), and
// whether such an entry exists. It is the timed-wake deadline that lets a
// router sleep with occupied shifters: no entry can expire — and no
// link-error NACK for one can arrive — before that cycle.
func (t *Transmitter) EarliestExpiry() (cycle uint64, ok bool) {
	if t.inShifters == 0 {
		return 0, false
	}
	for i := range t.vcs {
		if sent, has := t.vcs[i].shifter.OldestSent(); has {
			if !ok || sent+NACKWindow < cycle {
				cycle, ok = sent+NACKWindow, true
			}
		}
	}
	return cycle, ok
}

// ShifterOccupancy returns the summed occupancy and capacity of the
// port's retransmission buffers, for the Fig. 9 utilization metric.
func (t *Transmitter) ShifterOccupancy() (occupied, capacity int) {
	return t.inShifters, len(t.vcs) * t.vcs[0].shifter.Depth()
}

// Retained counts the flits the transmitter can still resend, by walking
// the shifters and the replay queue rather than trusting the running
// count Held reads. Invariant-checker inspection (mask soundness).
func (t *Transmitter) Retained() int {
	n := t.PendingReplay()
	for i := range t.vcs {
		n += t.vcs[i].shifter.Len()
	}
	return n
}

// PendingReplay returns the number of queued replay flits (tests).
func (t *Transmitter) PendingReplay() int { return len(t.replay) - t.replayHead }

// Channel returns the transmitter's channel (invariant-checker and test
// inspection).
func (t *Transmitter) Channel() *Channel { return t.ch }

// EachRetained visits every flit the transmitter can still resend: the
// pending replay queue followed by each VC's retransmission buffer.
// Invariant-checker inspection.
func (t *Transmitter) EachRetained(fn func(flit.Flit)) {
	for _, f := range t.replay[t.replayHead:] {
		fn(f)
	}
	for i := range t.vcs {
		for _, f := range t.vcs[i].shifter.Snapshot() {
			fn(f)
		}
	}
}

// AuditRetrans checks the retransmission machinery's soundness at a cycle
// boundary (clock = the cycle about to be ticked): every shifter entry
// must still be inside its NACK window — Expire frees slots at
// sent+NACKWindow, so an older entry means the expiry clock was skipped —
// the running occupancy count must equal the shifters' summed lengths,
// and every queued replay flit must name a real VC, or it could never be
// resent. It returns a description of the first violation, or "".
func (t *Transmitter) AuditRetrans(clock uint64) string {
	sum := 0
	for vc := range t.vcs {
		sum += t.vcs[vc].shifter.Len()
		if sent, ok := t.vcs[vc].shifter.OldestSent(); ok && clock > sent+NACKWindow {
			return fmt.Sprintf("vc %d: shifter entry sent at %d still present at %d (window %d)",
				vc, sent, clock, NACKWindow)
		}
	}
	if sum != t.inShifters {
		return fmt.Sprintf("occupancy count %d but shifters hold %d", t.inShifters, sum)
	}
	for _, f := range t.replay[t.replayHead:] {
		if int(f.VC) >= len(t.vcs) {
			return fmt.Sprintf("replay flit pid %d names VC %d of %d — unresendable",
				f.PID, f.VC, len(t.vcs))
		}
	}
	return ""
}

// AbandonVC discards one virtual channel's retransmission state — its
// shifter contents and any replay-queue entries riding it — without
// resending or crediting anything (shifter copies hold no credits).
// Hard-fault worm kills use it on LIVE channels whose VC carried a
// segment of a destroyed worm; fn (if non-nil) observes each abandoned
// flit for packet accounting. Serial use only.
func (t *Transmitter) AbandonVC(vc int, fn func(flit.Flit)) {
	if vc < 0 || vc >= len(t.vcs) {
		return
	}
	for _, f := range t.drainShifter(vc, nil) {
		if fn != nil {
			fn(f)
		}
	}
	kept := t.replay[:t.replayHead]
	for _, f := range t.replay[t.replayHead:] {
		if int(f.VC) == vc {
			if fn != nil {
				fn(f)
			}
			continue
		}
		kept = append(kept, f)
	}
	t.replay = kept
	if t.replayHead >= len(t.replay) {
		t.replay = t.replay[:0]
		t.replayHead = 0
	}
}

// AbandonAll discards every VC's retransmission state and the whole
// replay queue: the transmitter's channel is dead and nothing it retains
// can ever be resent. fn (if non-nil) observes each abandoned flit.
// Serial use only.
func (t *Transmitter) AbandonAll(fn func(flit.Flit)) {
	for vc := range t.vcs {
		for _, f := range t.drainShifter(vc, nil) {
			if fn != nil {
				fn(f)
			}
		}
	}
	if fn != nil {
		for _, f := range t.replay[t.replayHead:] {
			fn(f)
		}
	}
	t.replay = t.replay[:0]
	t.replayHead = 0
}

// Recall drains a VC's retransmission buffer without scheduling replay:
// the misroute-recovery path of §4.2, where the sender must re-route the
// recalled header (and any body flits behind it) rather than re-send them
// on the same path. The result is freshly allocated — callers retain it.
func (t *Transmitter) Recall(vc int) []flit.Flit {
	if vc < 0 || vc >= len(t.vcs) {
		return nil
	}
	return t.drainShifter(vc, nil)
}
