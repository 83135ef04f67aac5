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
//
// The backward side of the hop costs nothing until it is read. Credits
// are counters on the channel, folded in by Credits. A shifter entry sent
// at cycle s is live while s+NACKWindow >= the kernel clock, whoever
// ticks in between: nothing expires entries cycle by cycle, the code that
// captures, drains or inspects a shifter discounts the expired prefix
// itself, and the owner needs no wake for an entry's sake — only for a
// NACK (Channel.WakeTx), which BeginCycle ingests.
type Transmitter struct {
	ch  *Channel
	vcs []txVC
	// sends counts this transmitter's live shifter entries by send cycle;
	// total, when set (CountInto), is a window the same captures and drains
	// are also counted in — a router's, summing all its ports.
	sends SendWindow
	total *SendWindow
	// replay[replayHead:] is the pending replay queue; the backing array
	// is recycled once it drains, and the queue slides back to its front
	// before it takes more flits.
	replay     []flit.Flit
	replayHead int
	// nacks backs BeginCycle's return value.
	nacks    []NACK
	events   *stats.Events
	counters *fault.Counters

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

// SendWindow counts shifter captures by the cycle they were made on:
// slot s%len holds the captures of cycle s (= at) that no drain has taken
// back. The live entries are exactly those of the last NACKWindow+1 send
// cycles the clock still covers, so the occupancy of the shifters counted
// into a window — Fig. 9's metric — is a sum over its slots: O(1), and
// exact at every cycle whether or not anybody ticked.
type SendWindow [NACKWindow + 1]sendCount

type sendCount struct {
	at uint64
	n  int
}

// add counts n captures made at cycle. A cycle older than the slot's
// can only be out of every window already, and is dropped.
func (w *SendWindow) add(cycle uint64, n int) {
	switch s := &w[cycle%uint64(len(w))]; {
	case s.at == cycle:
		s.n += n
	case s.at < cycle:
		*s = sendCount{at: cycle, n: n}
	}
}

// drop takes back one capture of a live entry sent at cycle sent; its
// slot cannot have been reused while the entry is live.
func (w *SendWindow) drop(sent uint64) { w[sent%uint64(len(w))].n-- }

// Live sums the captures still inside their NACK window at clock.
func (w *SendWindow) Live(clock uint64) int {
	n := 0
	for i := range w {
		if s := &w[i]; live(s.at, clock) {
			n += s.n
		}
	}
	return n
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
// with the duplicate-buffer option of §4.5).
func NewTransmitter(ch *Channel, vcs, downstreamCap, shifterDepth int, events *stats.Events, counters *fault.Counters) *Transmitter {
	return &NewTransmitters(nil, 1, func(int) *Channel { return ch }, vcs, downstreamCap, shifterDepth, events, counters)[0]
}

// NewTransmitters creates n transmitters, transmitter i sending on ch(i),
// in three slabs from s (sim.Make) however many there are and however
// many VCs each has: the transmitters are one slice, their per-VC state
// windows of a second and every shifter ring a window of a third (as
// NewFIFOs does for the input buffers). Each window is capacity-capped,
// so nothing written through one reaches a neighbour's. A channel whose credit wire must
// first widen past its four inline VCs adds one allocation (fitCredits).
func NewTransmitters(s *sim.Slabs, n int, ch func(i int) *Channel, vcs, downstreamCap, shifterDepth int, events *stats.Events, counters *fault.Counters) []Transmitter {
	if vcs < 1 || downstreamCap < 1 {
		panic("link: transmitter needs >=1 VC and >=1 credit")
	}
	if shifterDepth < 1 {
		panic("link: retransmission buffer depth must be >= 1")
	}
	ts := sim.Make[Transmitter](s, n)
	txVCs := sim.Make[txVC](s, n*vcs)
	rings := sim.Make[retransEntry](s, n*vcs*shifterDepth)
	for i := range ts {
		t := &ts[i]
		t.ch, t.events, t.counters = ch(i), events, counters
		t.vcs = txVCs[i*vcs : (i+1)*vcs : (i+1)*vcs]
		t.ch.fitCredits(vcs)
		for v := range t.vcs {
			lo := (i*vcs + v) * shifterDepth
			t.vcs[v] = txVC{
				credits: downstreamCap,
				shifter: RetransBuffer{depth: shifterDepth, ring: rings[lo : lo+shifterDepth : lo+shifterDepth]},
			}
		}
	}
	return ts
}

// SetAccounts has the transmitter charge its events and fault counts to
// events and counters (its shard's) instead of the ones it was made with.
func (t *Transmitter) SetAccounts(events *stats.Events, counters *fault.Counters) {
	t.events, t.counters = events, counters
}

// clock is the kernel's cycle: the one being ticked, or between steps the
// next one to tick.
func (t *Transmitter) clock() uint64 { return t.ch.k.Cycle() }

// Slabs returns the store the transmitter's owner grows its buffers in:
// that of the actor its NACK wire wakes (Channel.WakeTx, sim.Kernel.Slabs).
func (t *Transmitter) Slabs() *sim.Slabs { return t.ch.nacks.Slabs() }

// CountInto makes w count this transmitter's captures and drains too,
// beginning with the entries it holds now. A router gives all its output
// ports one window, so its occupancy sampler reads one sum.
func (t *Transmitter) CountInto(w *SendWindow) {
	for _, s := range t.sends {
		w.add(s.at, s.n)
	}
	t.total = w
}

// drainShifter moves a VC's live flits onto dst, oldest first, and takes
// them out of the occupancy windows.
func (t *Transmitter) drainShifter(vc int, dst []flit.Flit) []flit.Flit {
	sh := &t.vcs[vc].shifter
	sh.settle(t.clock())
	for i := 0; i < sh.count; i++ {
		sent := sh.ring[sh.slot(i)].sent
		t.sends.drop(sent)
		if t.total != nil {
			t.total.drop(sent)
		}
	}
	return sh.AppendDrain(sim.Grow(t.Slabs(), dst, sh.count))
}

// BeginCycle ingests the NACKs visible this cycle: link-error NACKs drain
// the affected shifter into the replay queue; NACKs of other kinds (AC
// invalidations, misroute reports) are returned for the router to act on
// — their flits stay in the shifters until the router Recalls them. It
// must run before the cycle's sends on any cycle a NACK is visible, and
// costs one look at an empty wire on any other. It pops the NACKs in
// place; the returned slice is valid until the next BeginCycle.
func (t *Transmitter) BeginCycle(cycle uint64) []NACK {
	t.nacks = t.nacks[:0]
	for n := t.ch.popNACK(t.counters); n != nil; n = t.ch.popNACK(t.counters) {
		if n.Kind != NACKLinkError {
			t.nacks = append(sim.Grow(t.Slabs(), t.nacks, 1), *n)
			continue
		}
		if int(n.VC) >= len(t.vcs) {
			continue // corrupted handshake naming a non-existent VC; drop
		}
		if t.replayHead > 0 {
			// Slide the queue to the front of its array, so it grows
			// only when more flits wait than ever waited before.
			waiting := copy(t.replay, t.replay[t.replayHead:])
			t.replay, t.replayHead = t.replay[:waiting], 0
		}
		t.replay = t.drainShifter(int(n.VC), t.replay)
	}
	return t.nacks
}

// ExpireShifters frees the retransmission-buffer slots no longer live at
// cycle now, rather than when they are next touched. Nothing depends on
// it being called — expiry is by the clock (see Transmitter) — and it
// changes nothing another method reports. A hand-wired sender may keep
// calling it after BeginCycle.
func (t *Transmitter) ExpireShifters(cycle uint64) {
	for i := range t.vcs {
		t.vcs[i].shifter.settle(cycle)
	}
}

// Credits returns the free downstream slots for a VC, first folding in
// the credits that have become visible on the channel since the last
// read.
func (t *Transmitter) Credits(vc int) int {
	tv := &t.vcs[vc]
	tv.credits += t.ch.takeCredits(vc)
	return tv.credits
}

// FoldedCredits is Credits without the fold: the counter as it stands,
// leaving visible credits on the channel (where InFlightCredits counts
// them). Invariant-checker inspection.
func (t *Transmitter) FoldedCredits(vc int) int { return t.vcs[vc].credits }

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
	f := &t.replay[t.replayHead]
	vc := int(f.VC)
	if t.Credits(vc) <= 0 {
		// The credits returned by the receiver's drops are still in
		// flight; the port idles this cycle but stays reserved.
		return true
	}
	// f stays readable: the queue is recycled by truncation, and nothing
	// is appended to it before sendOnWire and the emit below are done.
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
func (t *Transmitter) Send(f flit.Flit, vc int, cycle uint64) { t.SendFlit(&f, vc, cycle) }

// SendFlit is Send reading the flit through a pointer. It stamps the VC
// into *f — the caller's copy, which is about to be discarded — and
// copies it twice: into the shifter entry and into the wire slot, the
// two places a sent flit rests.
func (t *Transmitter) SendFlit(f *flit.Flit, vc int, cycle uint64) {
	if t.Credits(vc) <= 0 {
		panic("link: send without credit")
	}
	if t.HasReplay() {
		panic("link: send while replay pending")
	}
	f.VC = uint8(vc)
	t.sendOnWire(f, cycle)
}

func (t *Transmitter) sendOnWire(f *flit.Flit, cycle uint64) {
	tv := &t.vcs[f.VC]
	tv.credits--
	// Capture the clean copy before the wire corrupts it. A soft error in
	// the buffer itself (§4.5) corrupts the stored copy with two bit
	// flips — uncorrectable, so a replay of it is doomed. Duplicate
	// buffers hold a second copy that out-survives the single upset.
	stored := tv.shifter.capture(f, cycle)
	if t.rbRate > 0 && t.rbRNG.Bool(t.rbRate) {
		t.counters.AddInjected(fault.RetransBufError)
		if t.rbDuplicate {
			t.counters.AddCorrected(fault.RetransBufError)
		} else {
			t.counters.AddUndetected(fault.RetransBufError)
			stored.Word = ecc.FlipDataBit(ecc.FlipDataBit(stored.Word, t.rbRNG.Intn(64)), (t.rbRNG.Intn(63)+17)%64)
		}
	}
	t.sends.add(cycle, 1)
	if t.total != nil {
		t.total.add(cycle, 1)
	}
	t.events.RetransWrites++
	t.ch.send(f, t.events, t.counters)
}

// SendControl transmits a probe/activation flit. Control flits bypass the
// buffer/credit machinery (they feed the retransmission-buffer direct
// input of Fig. 3) and are not captured: a lost probe is retried by the
// blocked node's threshold timer.
func (t *Transmitter) SendControl(f flit.Flit) {
	t.events.Probes++
	t.ch.send(&f, t.events, t.counters)
}

// ShifterOccupancy returns the summed occupancy and capacity of the
// port's retransmission buffers, for the Fig. 9 utilization metric.
func (t *Transmitter) ShifterOccupancy() (occupied, capacity int) {
	return t.sends.Live(t.clock()), len(t.vcs) * t.vcs[0].shifter.Depth()
}

// Retained counts the flits the transmitter can still resend, by walking
// the shifters and the replay queue rather than trusting the send
// window. Invariant-checker and test inspection.
func (t *Transmitter) Retained() int {
	n, clock := t.PendingReplay(), t.clock()
	for vc := range t.vcs {
		sh := &t.vcs[vc].shifter
		n += sh.count - sh.expired(clock)
	}
	return n
}

// PendingReplay returns the number of queued replay flits (tests).
func (t *Transmitter) PendingReplay() int { return len(t.replay) - t.replayHead }

// Channel returns the transmitter's channel (invariant-checker and test
// inspection).
func (t *Transmitter) Channel() *Channel { return t.ch }

// EachRetained visits every flit the transmitter can still resend: the
// pending replay queue followed by each VC's live shifter entries, oldest
// first, settling nothing. Invariant-checker inspection.
func (t *Transmitter) EachRetained(fn func(flit.Flit)) {
	for _, f := range t.replay[t.replayHead:] {
		fn(f)
	}
	clock := t.clock()
	for vc := range t.vcs {
		sh := &t.vcs[vc].shifter
		for i := sh.expired(clock); i < sh.count; i++ {
			fn(sh.ring[sh.slot(i)].f)
		}
	}
}

// AuditRetrans checks the retransmission machinery's soundness at a cycle
// boundary (clock = the cycle about to be ticked), without settling
// anything: every shifter must hold its entries in send order — expiry
// drops a prefix, so an out-of-order entry would outlive or underlive its
// window — no VC may have more than NACKWindow entries live, the
// occupancy the send window reports must equal a walk of the live
// entries, and every queued replay flit must name a real VC, or it could
// never be resent. It returns a description of the first violation, or
// "".
func (t *Transmitter) AuditRetrans(clock uint64) string {
	walked := 0
	for vc := range t.vcs {
		sh := &t.vcs[vc].shifter
		for i := 1; i < sh.count; i++ {
			if a, b := sh.ring[sh.slot(i-1)].sent, sh.ring[sh.slot(i)].sent; a > b {
				return fmt.Sprintf("vc %d: shifter entry sent at %d sits ahead of one sent at %d", vc, a, b)
			}
		}
		inWindow := sh.count - sh.expired(clock)
		if inWindow > NACKWindow {
			return fmt.Sprintf("vc %d: %d entries inside a %d-cycle NACK window at %d", vc, inWindow, NACKWindow, clock)
		}
		walked += inWindow
	}
	if occ := t.sends.Live(clock); occ != walked {
		return fmt.Sprintf("send window reports %d occupied at %d but shifters hold %d live entries", occ, clock, walked)
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
// on the same path. Like AppendDrain it appends the flits to dst, oldest
// first, and returns the extended slice, so a caller that keeps dst's
// backing array recalls into it without allocating. An out-of-range vc
// recalls nothing.
func (t *Transmitter) Recall(dst []flit.Flit, vc int) []flit.Flit {
	if vc < 0 || vc >= len(t.vcs) {
		return dst
	}
	return t.drainShifter(vc, dst)
}
