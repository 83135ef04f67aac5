package router

import (
	"fmt"
	"math/bits"

	"ftnoc/internal/ac"
	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
)

// probeSeenWindow is how long a node remembers having forwarded a probe
// from a given origin, for validating activations (Rule 3).
const probeSeenWindow = 512

// reprobeInterval is how long a blocked VC waits after sending a probe
// before assuming it was lost (e.g. corrupted on the wire) and probing
// again.
const reprobeInterval = 2 * DefaultCthres

// Router is one pipelined virtual-channel wormhole router (Fig. 1). It
// implements sim.Actor; the network registers it with the kernel and
// attaches channel endpoints to its ports.
type Router struct {
	cfg Config
	id  flit.NodeID

	// in[p]/out[p] point into inPorts/outPorts once port p is attached;
	// nil means unattached.
	in  [topology.NumPorts]*inPort
	out [topology.NumPorts]*outputPort

	// Port masks (bit p = port p): every per-tick port loop walks the set
	// bits of one of these instead of sweeping all ports, so a tick costs
	// what is in flight. Each is a superset of the ports that need
	// service — a set bit on an idle port costs one no-op poll, a clear
	// bit on a busy port would lose traffic (invariant "port-masks").
	//
	//   rxPending  input ports whose wire shows flits. Set by the flit
	//              pipe's delivery (hook installed in AttachInput),
	//              cleared by ingest once it has taken every arrival off it.
	//   txPending  output ports whose NACK wire shows a NACK. Set by that
	//              pipe's delivery (AttachOutput), cleared by beginOutputs
	//              once BeginCycle has drained it. A delivery marks once,
	//              as values become visible, so a bit may be cleared only
	//              after draining. Credits mark nothing: they are counters
	//              read where a decision needs them.
	//   txReplay   output ports with a pending replay, which owns the
	//              physical channel until it drains. Set by beginOutputs
	//              when a link-error NACK has filled the replay queue,
	//              cleared by arbitrate when it finds the queue empty.
	//
	// No mask follows the shifters: their entries leave the NACK window by
	// the clock, with nothing for a tick to do (see sends below).
	//
	// Writers: the kernel's delivery phase sets rx/txPending; this
	// router's own tick does everything else. Hard-fault surgery between
	// steps only ever removes traffic, which leaves the masks supersets.
	rxPending uint8
	txPending uint8
	txReplay  uint8
	// outAttached marks the output ports that have a transmitter.
	outAttached uint8

	// Deadlock machinery (§3.2.2). probeSeen grows from the first probe
	// (rememberProbe).
	probeSeen  []probeRecord
	inRecovery bool
	doneStreak int // consecutive all-clear cycles before recovery exits

	// Diagnostic counters, exported via accessors.
	recoveries         uint64
	probesSent         uint64
	wormholeViolations uint64
	strayFlits         uint64
	creditStalls       uint64

	// flatVCs flattens (port, vc) pairs for round-robin iteration without
	// a divmod per probe; nil entries are unattached ports.
	flatVCs []*inputVC

	// arena backs the attached input VCs contiguously (struct-of-arrays
	// locality: one router's whole VC state shares cache lines); fifos
	// backs their buffers and outVCs every output port's VC table the same
	// way. Each is this router's window of an arena all the routers of
	// NewRouters share. flatVCs points into arena, in[p].vcs is a window
	// of flatVCs and out[p].vcs one of outVCs.
	arena  []inputVC
	fifos  []link.FIFO
	outVCs []outputVC

	// The allocator phases walk bitmasks over the flat VC index (bit i =
	// flatVCs[i]; MaxVCs keeps the index inside one word) instead of
	// scanning ports x VCs. liveVCs is a conservative superset of the VCs
	// that are not (idle AND empty): the ONLY dead->live transition is a
	// flit arrival (ingestData), the single place a bit is set, and bits
	// are cleared lazily when a scan visits a dead VC. waitVA (the vcVAWait
	// VCs), saMask[p] (the vcActive VCs bound to output port p) and active
	// (the union of saMask) are exact: setState, the one place a VC's state
	// changes, keeps them (invariant "vc-masks"). Walking a mask ascending
	// from a round-robin origin (rotated) visits bit (rr+j)%n for
	// j = 0..n-1, the order a round-robin probe of every VC would.
	liveVCs uint64
	waitVA  uint64
	active  uint64
	saMask  [topology.NumPorts]uint64
	// rule1At is a lower bound on the first cycle any VC can have been
	// blocked for Cthres cycles: no live VC has lastProgress+Cthres below
	// it (invariant "vc-masks"), so the Rule-1 scan waits for it. Each scan
	// recomputes it over the live VCs. Between scans a clock only moves
	// forward (executeGrant, resetVC), except the one a flit arrival starts
	// on a dead VC the scan did not count: ingestData lowers it for that.
	rule1At uint64
	// Occupancy, O(1) for the per-cycle utilization sampler. bufCapTotal
	// and shCapTotal are the summed buffer and shifter capacities of the
	// attached ports, accumulated at attachment. buffered counts the flits
	// in input VC buffers and parked those in pending queues, each
	// adjusted where a flit enters or leaves (ingestData, takeFront,
	// recoveryStep, recoverMisroute, KillVC). sends is the send window all
	// the output ports' transmitters count into (link.SendWindow): the
	// shifter entries still inside their NACK window, by the clock, asleep
	// or awake. All are audited against a full walk by AuditInvariants.
	bufCapTotal int
	shCapTotal  int
	buffered    int
	parked      int
	sends       link.SendWindow

	// Per-cycle scratch buffers, reused across ticks; capacities are
	// bounded by the port/VC counts so the steady state never allocates.
	// legal backs legalCandidates' result.
	legal       [topology.NumPorts]topology.Port
	scratchBind []ac.Binding

	inPorts  [topology.NumPorts]inPort
	outPorts [topology.NumPorts]outputPort
}

type inPort struct {
	port topology.Port
	rx   *link.Receiver
	vcs  []*inputVC
}

// New creates a router. Ports start unattached; wire them with
// AttachInput / AttachOutput before the first Tick.
func New(cfg Config) *Router { return &NewRouters(nil, 1, func(int) Config { return cfg })[0] }

// NewRouters creates n routers, router i configured by cfg(i), in seven
// slabs from s (sim.Make) however many there are: the routers are one
// slice, and their input VCs, VC pointers, FIFO headers, flit storage,
// output VCs and binding scratch are capacity-capped windows of one arena
// per kind.
// The n configurations must agree on VCs and BufDepth. A router's
// probe memory is made on its first probe.
func NewRouters(s *sim.Slabs, n int, cfg func(i int) Config) []Router {
	rs := sim.Make[Router](s, n)
	for i := range rs {
		c := cfg(i)
		c.validate()
		if i > 0 && (c.VCs != rs[0].cfg.VCs || c.BufDepth != rs[0].cfg.BufDepth) {
			panic("router: NewRouters configurations disagree on VCs or BufDepth")
		}
		rs[i].cfg, rs[i].id = c, c.ID
	}
	if n == 0 {
		return rs
	}
	per := int(topology.NumPorts) * rs[0].cfg.VCs
	flat := sim.Make[*inputVC](s, n*per)
	ivcs := sim.Make[inputVC](s, n*per)
	fifos := link.NewFIFOs(s, n*per, rs[0].cfg.BufDepth)
	outs := sim.Make[outputVC](s, n*per)
	binds := sim.Make[ac.Binding](s, n*per)
	for i := range rs {
		r := &rs[i]
		lo, hi := i*per, (i+1)*per
		r.flatVCs = flat[lo:hi:hi]
		r.arena = ivcs[lo:hi:hi]
		r.fifos = fifos[lo:hi:hi]
		r.outVCs = outs[lo:hi:hi]
		r.scratchBind = binds[lo:lo:hi]
	}
	return rs
}

// ID returns the router's node identifier.
func (r *Router) ID() flit.NodeID { return r.id }

// AttachInput connects the receiving side of a channel to port p,
// creates the port's input VC buffers (slots in the router's contiguous
// VC arena), and hooks the channel's flit deliveries to this port's
// rxPending bit — attachment is what makes the masks sound, so a router
// wired by hand needs nothing else.
func (r *Router) AttachInput(p topology.Port, rx *link.Receiver) {
	lo := int(p) * r.cfg.VCs
	for i := 0; i < r.cfg.VCs; i++ {
		slot := lo + i
		ivc := &r.arena[slot]
		*ivc = inputVC{port: p, idx: i, flat: slot, buf: &r.fifos[slot]}
		r.flatVCs[slot] = ivc
		r.bufCapTotal += ivc.buf.Cap()
	}
	r.inPorts[p] = inPort{port: p, rx: rx, vcs: r.flatVCs[lo : lo+r.cfg.VCs]}
	r.in[p] = &r.inPorts[p]
	rx.Channel().MarkRx(&r.rxPending, 1<<p)
}

// AttachOutput connects the transmitting side of a channel to port p,
// hooks the channel's NACK deliveries to this port's txPending bit and
// has the transmitter count its shifter entries into the router's send
// window. A transmitter that already awaits replay marks txReplay.
func (r *Router) AttachOutput(p topology.Port, tx *link.Transmitter) {
	lo := int(p) * r.cfg.VCs
	r.outPorts[p] = outputPort{port: p, tx: tx, vcs: r.outVCs[lo : lo+r.cfg.VCs]}
	r.out[p] = &r.outPorts[p]
	_, c := tx.ShifterOccupancy()
	r.shCapTotal += c
	tx.Channel().MarkTx(&r.txPending, 1<<p)
	tx.CountInto(&r.sends)
	r.outAttached |= 1 << p
	if tx.HasReplay() {
		r.txReplay |= 1 << p
	}
}

// Tick evaluates one cycle of the router pipeline. The phases mirror the
// atomic modules of Fig. 2; all cross-router effects go through channel
// wires whose values carry the cycle they become visible at — never
// this one — so intra-cycle phase order is purely local. For the same
// reason a pointer ingest takes into an input wire's slot stays good for
// the whole Tick: only the upstream actor pushes on that wire.
func (r *Router) Tick(cycle uint64) {
	r.beginOutputs(cycle)
	r.ingest(cycle)
	r.advance(cycle)
	r.allocateVA(cycle)
	r.allocateSA(cycle)
	r.deadlock(cycle)
}

// setState moves ivc to state s and keeps the allocator masks equal to
// what a walk of the VCs would compute: waitVA holds exactly the
// vcVAWait VCs, saMask[p] exactly the vcActive VCs whose outPort is p
// and active their union (an Active VC with no valid port — never
// produced today — would join none). It is the only writer of
// inputVC.state; a caller making a VC Active sets outPort first, and
// outPort must not change while Active.
func (r *Router) setState(ivc *inputVC, s vcState) {
	bit := uint64(1) << uint(ivc.flat)
	switch ivc.state {
	case vcVAWait:
		r.waitVA &^= bit
	case vcActive:
		if ivc.outPort.Valid() {
			r.saMask[ivc.outPort] &^= bit
			r.active &^= bit
		}
	}
	ivc.state = s
	switch s {
	case vcVAWait:
		r.waitVA |= bit
	case vcActive:
		if ivc.outPort.Valid() {
			r.saMask[ivc.outPort] |= bit
			r.active |= bit
		}
	}
}

// resetVC returns ivc to idle between packets.
func (r *Router) resetVC(ivc *inputVC, cycle uint64) {
	r.setState(ivc, vcIdle)
	ivc.candidates = nil
	ivc.outPort = 0
	ivc.outVC = 0
	ivc.probeOutstanding = false
	ivc.member = false
	ivc.lastProgress = cycle
}

// rotated splits mask at a round-robin origin: walking the first word's
// set bits ascending and then the second's visits bit (origin+j)%n for
// j = 0..n-1, skipping clear bits — a rotated probe of every VC,
// restricted to the mask. origin must be below 64.
func rotated(mask uint64, origin int) [2]uint64 {
	from := mask >> uint(origin) << uint(origin)
	return [2]uint64{from, mask &^ from}
}

// Quiescent implements sim.Quiescer: the router may be skipped when every
// input VC is idle and empty, no output port is replaying, no deadlock
// machinery is live, and the probe-memory table is empty (pruning it is
// clock-driven, so a non-empty table keeps the router ticking until it
// drains). It never asks for a timed wake. Flit arrivals wake it through
// the input channels' delivery hooks and NACKs through the output
// channels' (link.Channel.WakeTx), each on its exact visibility cycle;
// everything else on the backward side of a hop waits to be read. Credits
// sit in the channels' counters until a switch-allocation decision reads
// one. Shifter entries sent before the router went quiet leave their NACK
// window by the clock, with nothing to do when they go: a later send
// evicts them, a NACK inside the window finds them, and the occupancy
// sampler counts them by the cycle they were sent at.
func (r *Router) Quiescent(cycle uint64) (bool, uint64) {
	if r.inRecovery || len(r.probeSeen) > 0 {
		return false, 0
	}
	if r.waitVA != 0 || r.active != 0 {
		return false, 0
	}
	for m := r.liveVCs; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if r.flatVCs[i].occupied() != 0 {
			return false, 0
		}
		r.liveVCs &^= 1 << uint(i)
	}
	for m := r.txReplay; m != 0; m &= m - 1 {
		if r.out[bits.TrailingZeros8(m)].tx.HasReplay() {
			return false, 0
		}
	}
	return true, 0
}

// beginOutputs ingests NACKs on the output channels and services misroute
// NACKs (§4.2 recovery). Only ports whose wire shows a NACK (txPending)
// are visited, in ascending port order: on any other port BeginCycle
// would drain an empty wire — no state change, no RNG draw, no event — so
// skipping it is exact. A link-error NACK leaves its flits in the replay
// queue, which the switch allocator must serve: the port joins txReplay.
func (r *Router) beginOutputs(cycle uint64) {
	for m := r.txPending; m != 0; m &= m - 1 {
		p := topology.Port(bits.TrailingZeros8(m))
		op := r.out[p]
		for _, n := range op.tx.BeginCycle(cycle) {
			switch n.Kind {
			case link.NACKMisroute:
				r.recoverMisroute(p, int(n.VC), cycle)
			case link.NACKRecoveryOn:
				op.downstreamRecovering = true
			case link.NACKRecoveryOff:
				op.downstreamRecovering = false
			}
			// NACKIgnore carries no action for the transmitter: the AC
			// invalidation already prevented the erroneous state from
			// being used; the handshake exists for energy accounting.
		}
		if op.tx.HasReplay() {
			r.txReplay |= 1 << p
		}
	}
	r.txPending = 0
}

// recoverMisroute handles a neighbor's report that the header we sent on
// (p, ov) violated the deterministic route: recall the sent flits from
// the retransmission buffer, release the allocation, and re-route
// (§4.2 — "the header flit is still in the previous router's
// retransmission buffer").
func (r *Router) recoverMisroute(p topology.Port, ov int, cycle uint64) {
	op := r.out[p]
	if ov < 0 || ov >= len(op.vcs) || !op.vcs[ov].busy {
		return
	}
	owner := op.vcs[ov]
	ivc := r.in[owner.inPort].vcs[owner.inVC]
	r.fitPending(ivc)
	recalled := ivc.recall(op.tx, ov)
	op.vcs[ov] = outputVC{}
	r.parked += len(recalled)
	for _, f := range recalled {
		r.emit(trace.FlitRecalled, cycle, int8(owner.inPort), int8(owner.inVC), uint64(f.PID), f.Seq, 0)
	}
	r.setState(ivc, vcVAWait)
	ivc.candidates = r.computeRoute(cycle, ivc)
	ivc.earliestVA = cycle + 1 // the re-routing process (§4.2)
	r.cfg.Counters.AddCorrected(fault.RTLogic)
}

// ingest receives this cycle's arrivals, applies the misroute consistency
// check to headers, and writes accepted flits into the VC buffers. Only
// ports whose wire shows flits (rxPending) are visited, in ascending port
// order; receiving from an empty wire changes nothing. Per port the
// receiver checks every arrival where it lies, then the controls are
// handled and then the data buffered, each read through a pointer into
// its wire slot.
func (r *Router) ingest(cycle uint64) {
	for m := r.rxPending; m != 0; m &= m - 1 {
		p := topology.Port(bits.TrailingZeros8(m))
		ip := r.in[p]
		ip.rx.Receive(cycle)
		for f := ip.rx.NextControl(); f != nil; f = ip.rx.NextControl() {
			r.handleControl(cycle, p, f)
		}
		for f := ip.rx.NextData(); f != nil; f = ip.rx.NextData() {
			r.ingestData(cycle, ip, f)
		}
	}
	r.rxPending = 0
}

// ingestData buffers one accepted arrival: f points into the wire slot it
// arrived in, and Push is the one copy that takes it from there into its
// VC buffer slot.
func (r *Router) ingestData(cycle uint64, ip *inPort, f *flit.Flit) {
	vc := int(f.VC)
	if vc >= len(ip.vcs) {
		vc = 0
	}
	ivc := ip.vcs[vc]

	if f.Type == flit.Head && ip.port != topology.Local && r.cfg.XYCheck {
		// §4.2: under deterministic routing, a misdirected header is
		// detected by the router that receives it — the arrival direction
		// must match the route the previous node should have taken.
		if up, ok := r.cfg.Topo.Neighbor(r.id, ip.port); ok {
			dst := flit.DecodeHeader(f.Word).Dst
			exp := r.cfg.Route.Route(up, dst)
			if len(exp) == 1 && exp[0] != ip.port.Opposite() {
				ip.rx.ForceDrop(vc, cycle, link.NACKMisroute, uint64(f.PID), f.Seq)
				return
			}
		}
	}

	if ivc.buf.Full() {
		// Flow control forbids this for healthy traffic; it happens only
		// when an unprotected logic fault (AC-off ablation) has corrupted
		// wormhole state. Drop and reclaim the slot.
		r.wormholeViolations++
		ip.rx.ReturnCredit(vc)
		r.emitDrop(cycle, ip.port, vc, f, trace.DropWormhole)
		return
	}
	if ivc.occupied() == 0 {
		// The clock of a VC the last Rule-1 scan may not have counted.
		ivc.lastProgress = cycle
		r.rule1At = min(r.rule1At, cycle+r.cfg.Cthres)
	}
	ivc.buf.Push(f)
	r.buffered++
	// The single dead->live site: every other mutation that keeps a VC
	// live (VA/SA state changes, recovery parking, misroute recall)
	// operates on a VC that already holds flits or a wormhole.
	r.liveVCs |= 1 << uint(ivc.flat)
	r.cfg.Events.BufWrites++
	if r.cfg.Bus.Enabled() {
		r.emit(trace.FlitBuffered, cycle, int8(ip.port), int8(vc), uint64(f.PID), f.Seq, 0)
	}
}

// advance starts the pipeline for newly headed packets: an idle VC with a
// Head flit at its buffer front computes its route (the RT stage; folded
// into arrival by look-ahead for depths <= 3) and enters VA wait. Only a
// live, idle VC can satisfy the idle-with-front condition, so the walk
// visits the live VCs that neither wait for VA nor hold an output
// (ascending: port-major order), and retires from the live set the ones
// it finds empty — the scan that shrinks it.
func (r *Router) advance(cycle uint64) {
	for m := r.liveVCs &^ (r.waitVA | r.active); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ivc := r.flatVCs[i]
		if ivc.occupied() == 0 {
			r.liveVCs &^= 1 << uint(i)
			continue
		}
		r.advanceVC(cycle, r.in[ivc.port], ivc)
	}
}

func (r *Router) advanceVC(cycle uint64, ip *inPort, ivc *inputVC) {
	if ivc.state != vcIdle {
		return
	}
	f := ivc.frontSlot()
	if f == nil {
		return
	}
	if f.Type != flit.Head {
		// Stray flit with no wormhole: only possible when an
		// unprotected fault broke packet framing. Drop it.
		var dropped flit.Flit
		fromBuf := r.takeFront(ivc, &dropped)
		if fromBuf {
			ip.rx.ReturnCredit(ivc.idx)
		}
		r.strayFlits++
		r.wormholeViolations++
		if r.cfg.Bus.Enabled() {
			aux := trace.DequeuedStray
			if fromBuf {
				aux |= trace.DequeuedFromBuffer
			}
			r.emit(trace.FlitDequeued, cycle, int8(ivc.port), int8(ivc.idx), uint64(dropped.PID), dropped.Seq, aux)
		}
		r.emitDrop(cycle, ivc.port, ivc.idx, &dropped, trace.DropStray)
		return
	}
	ivc.dst = flit.DecodeHeader(f.Word).Dst
	ivc.candidates = r.computeRoute(cycle, ivc)
	r.setState(ivc, vcVAWait)
	ivc.earliestVA = cycle + vaOffset(r.cfg.PipelineDepth)
}

// takeFront removes the next flit ivc must emit — the one frontSlot
// points at — into *dst, the one copy that takes it out of its buffer
// slot, keeping the occupancy counts in step. fromBuf reports that the
// flit left the buffer (and so frees a credited slot) rather than the
// pending queue.
func (r *Router) takeFront(ivc *inputVC, dst *flit.Flit) (fromBuf bool) {
	if len(ivc.queued()) > 0 {
		ivc.popPending(dst)
		r.parked--
		return false
	}
	src := ivc.buf.Front()
	if src == nil {
		panic("router: takeFront on empty VC")
	}
	*dst = *src
	ivc.buf.Pop()
	r.buffered--
	return true
}

// computeRoute runs the routing function for the packet resident in ivc,
// with RT-logic fault injection (§4.2: a transient fault misdirects the
// packet by replacing the candidate set).
func (r *Router) computeRoute(cycle uint64, ivc *inputVC) []topology.Port {
	r.cfg.Events.RTComputes++
	cands := r.cfg.Route.Route(r.id, ivc.dst)
	if r.cfg.RTFault.Upset() {
		r.cfg.Counters.AddInjected(fault.RTLogic)
		cands = singlePort[r.cfg.RTFault.Pick(int(topology.NumPorts))]
	}
	if r.cfg.Bus.Enabled() {
		var pid uint64
		var seq uint8
		if f := ivc.frontSlot(); f != nil {
			pid, seq = uint64(f.PID), f.Seq
		}
		r.emit(trace.RouteComputed, cycle, int8(ivc.port), int8(ivc.idx), pid, seq, 0)
	}
	return cands
}

// singlePort[p] is the one-element candidate list {p}: what an RT upset
// leaves a packet with. Shared and read-only, like every candidate list.
var singlePort = func() (t [topology.NumPorts][]topology.Port) {
	for p := range t {
		t[p] = []topology.Port{topology.Port(p)}
	}
	return t
}()

// legalCandidates filters an RT candidate set for a packet bound to dst
// down to ports that the VC allocator's state information permits:
// existing, un-faulted links, and Local only for packets that have arrived
// (§4.2 — the VA "is aware of blocked links or links which are not
// permitted due to physical constraints").
func (r *Router) legalCandidates(cands []topology.Port, dst flit.NodeID) []topology.Port {
	// Returns the reusable scratch buffer; callers consume it before the
	// next legalCandidates call on this router.
	legal := r.legal[:0]
	for _, p := range cands {
		if !p.Valid() {
			continue
		}
		if p == topology.Local {
			if dst == r.id && r.out[p] != nil {
				legal = append(legal, p)
			}
			continue
		}
		if r.out[p] != nil && r.cfg.Topo.LinkUp(r.id, p) {
			legal = append(legal, p)
		}
	}
	return legal
}

// deadEnd reports whether no port of cands is legal for a packet bound to
// dst. It overwrites legalCandidates' scratch buffer.
func (r *Router) deadEnd(cands []topology.Port, dst flit.NodeID) bool {
	return len(r.legalCandidates(cands, dst)) == 0
}

// bindingAt returns the VA state table's entry for output VC (p, v) — the
// one entry of existingBindings a fresh binding naming (p, v) can be a
// duplicate of, so all the comparator's duplicate screen has to read —
// or nothing when that VC is free, out of range or on an unattached
// port. The returned slice is a reusable scratch buffer, consumed
// synchronously.
func (r *Router) bindingAt(p topology.Port, v int) []ac.Binding {
	if int(p) >= len(r.out) || r.out[p] == nil || v < 0 || v >= len(r.out[p].vcs) || !r.out[p].vcs[v].busy {
		return nil
	}
	e := &r.out[p].vcs[v]
	return append(r.scratchBind[:0], ac.Binding{InPort: e.inPort, InVC: e.inVC, OutPort: p, OutVC: v})
}

// existingBindings snapshots the whole VA state table, for corruptBinding
// to draw a collision victim from. The returned slice is a reusable
// scratch buffer, consumed synchronously.
func (r *Router) existingBindings() []ac.Binding {
	bs := r.scratchBind[:0]
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		op := r.out[p]
		if op == nil {
			continue
		}
		for v := range op.vcs {
			if op.vcs[v].busy {
				bs = append(bs, ac.Binding{
					InPort: op.vcs[v].inPort, InVC: op.vcs[v].inVC,
					OutPort: p, OutVC: v,
				})
			}
		}
	}
	return bs
}

// allocateVA runs the VC allocator: each waiting header arbitrates for a
// free output VC on one of its candidate ports. Fresh allocations are
// screened by the Allocation Comparator (§4.1). The waiting VCs are
// visited in round-robin order from the cycle, which rotates the origin
// once per cycle whether the router ticks or sleeps. A grant takes its VC
// out of waitVA, but no VC enters it during the pass, so the walk is over
// a copy.
func (r *Router) allocateVA(cycle uint64) {
	for _, m := range rotated(r.waitVA, int(cycle)%len(r.flatVCs)) {
		for ; m != 0; m &= m - 1 {
			r.tryVA(cycle, r.flatVCs[bits.TrailingZeros64(m)])
		}
	}
}

// tryVA considers one input VC for VC allocation this cycle.
func (r *Router) tryVA(cycle uint64, ivc *inputVC) {
	if ivc.state != vcVAWait || cycle < ivc.earliestVA {
		return
	}
	if r.inRecovery && ivc.port == topology.Local {
		// A recovering node admits no new traffic from its own PE
		// (§3.2.1): injected packets would consume the recovery slack.
		return
	}
	if ivc.occupied() == 0 {
		return
	}
	r.cfg.Events.VAAllocs++

	legal := r.legalCandidates(ivc.candidates, ivc.dst)
	if len(legal) == 0 {
		// Every candidate is blocked, missing, or physically
		// impossible. Re-route with a one-cycle penalty. Only when the
		// packet's true route has a legal port has the VA state info
		// caught a misdirection (§4.2); otherwise the packet waits on a
		// dead link and there is nothing to correct.
		if !r.deadEnd(r.cfg.Route.Route(r.id, ivc.dst), ivc.dst) {
			r.cfg.Counters.AddCorrected(fault.RTLogic)
		}
		ivc.candidates = r.computeRoute(cycle, ivc)
		ivc.earliestVA = cycle + 1
		return
	}

	grantPort, grantVC := topology.Port(0), -1
	for _, p := range legal {
		if r.out[p].downstreamRecovering && !ivc.member && ivc.blockedFor(cycle) < 4*r.cfg.Cthres {
			// §3.2.1: "no new packets are allowed to enter the
			// transmission buffers that are involved in the deadlock
			// recovery." Deadlock members — packets the detection
			// probes ran through — must still advance (their advance
			// IS the recovery), but fresh traffic would consume the
			// slack the recovery created.
			continue
		}
		if v := r.out[p].freeVC(int(cycle)); v >= 0 {
			grantPort, grantVC = p, v
			break
		}
	}
	if grantVC < 0 {
		return // all candidate VCs reserved; retry next cycle
	}

	b := ac.Binding{InPort: ivc.port, InVC: ivc.idx, OutPort: grantPort, OutVC: grantVC}
	corrupted := false
	if r.cfg.VAFault.Upset() {
		r.cfg.Counters.AddInjected(fault.VALogic)
		b = r.corruptBinding(b)
		corrupted = true
	}

	if r.cfg.ACEnabled {
		r.cfg.Events.ACChecks++
		if v := ac.CheckVA(b, ivc.candidates, r.cfg.VCs, int(topology.NumPorts), r.bindingAt(b.OutPort, b.OutVC)); v != ac.None {
			// Invalidate the previous allocation and redo it: one
			// cycle of latency (§4.1). In routers of depth <= 2 the
			// speculative transmission must also be squashed with an
			// ignore-NACK to the neighbors.
			r.cfg.Counters.AddCorrected(fault.VALogic)
			if r.cfg.PipelineDepth <= 2 {
				r.cfg.Events.NACKs++
			}
			r.emit(trace.ACMismatch, cycle, int8(ivc.port), int8(ivc.idx), 0, 0, trace.AuxVA)
			ivc.earliestVA = cycle + 1
			return
		}
	}

	// Commit (possibly corrupt, if the AC is disabled).
	ivc.outPort, ivc.outVC = b.OutPort, b.OutVC
	r.setState(ivc, vcActive)
	if int(b.OutPort) < int(topology.NumPorts) && r.out[b.OutPort] != nil && b.OutVC >= 0 && b.OutVC < r.cfg.VCs {
		r.out[b.OutPort].vcs[b.OutVC] = outputVC{busy: true, inPort: ivc.port, inVC: ivc.idx, corrupt: corrupted}
	}
	if saAfterVA(r.cfg.PipelineDepth) {
		ivc.earliestSA = cycle + 1
	} else {
		ivc.earliestSA = cycle
	}
	if corrupted {
		r.cfg.Counters.AddUndetected(fault.VALogic)
	}
	if r.cfg.Bus.Enabled() {
		var pid uint64
		if f := ivc.frontSlot(); f != nil {
			pid = uint64(f.PID)
		}
		r.emit(trace.VCAllocated, cycle, int8(b.OutPort), int8(b.OutVC), pid, 0, 0)
	}
}

// corruptBinding damages a fresh VA allocation the way a single-event
// upset would (§4.1 scenarios 1-3 and 4b).
func (r *Router) corruptBinding(b ac.Binding) ac.Binding {
	switch r.cfg.VAFault.Pick(3) {
	case 0: // scenario 1: invalid output VC id
		b.OutVC = r.cfg.VCs + r.cfg.VAFault.Pick(2)
	case 1: // scenarios 2/3: collide with a reserved output VC
		if ex := r.existingBindings(); len(ex) > 0 {
			e := ex[r.cfg.VAFault.Pick(len(ex))]
			b.OutPort, b.OutVC = e.OutPort, e.OutVC
		} else {
			b.OutVC = r.cfg.VCs
		}
	default: // scenario 4b: VC on a physical channel other than intended
		shift := 1 + r.cfg.VAFault.Pick(int(topology.NumPorts)-1)
		b.OutPort = topology.Port((int(b.OutPort) + shift) % int(topology.NumPorts))
	}
	return b
}

// saRequest is one switch-allocation requester this cycle.
type saRequest struct {
	ivc   *inputVC
	upset bool
}

// saRequestFor registers one eligible SA requester: it counts the
// allocation attempt, draws the fault injector, and returns the updated
// (winner, won) pair. Losing requesters hit by an upset are the benign
// case (a) of §4.3 — the fault denied them nothing.
func (r *Router) saRequestFor(ivc *inputVC, winner saRequest, won bool) (saRequest, bool) {
	r.cfg.Events.SAAllocs++
	req := saRequest{ivc: ivc}
	if r.cfg.SAFault.Upset() {
		r.cfg.Counters.AddInjected(fault.SALogic)
		req.upset = true
	}
	if !won {
		return req, true
	}
	if req.upset {
		r.cfg.Counters.AddUndetected(fault.SALogic)
	}
	// Non-winning clean requesters simply retry next cycle.
	return winner, won
}

// allocateSA arbitrates the crossbar per output port, screens the grant
// vector with the Allocation Comparator (§4.3), and performs switch +
// link traversal for the winners. Each output port grants at most once,
// so the vector and its requests live in port-sized arrays on the stack.
func (r *Router) allocateSA(cycle uint64) {
	var grantedIn uint8 // input ports already granted this cycle
	var grants [topology.NumPorts]ac.Grant
	var reqs [topology.NumPorts]saRequest
	n := 0

	// ports is the set of output ports worth arbitrating: on any other
	// port no VC requests and nothing replays, so its pass would neither
	// count, draw, nor rotate anything. A port's requesters are its
	// saMask; VA ran earlier this tick, so bindings are settled, and
	// grants execute only after every port is arbitrated, so no mask moves
	// mid-pass. Replay needs the channel whether or not anyone requests it.
	// (The masks are read in place: ranging over the array by value would
	// copy it to the stack first.)
	ports := r.txReplay
	for p := range r.saMask {
		if r.saMask[p] != 0 {
			ports |= 1 << p
		}
	}
	ports &= r.outAttached

	// Visit ports in rotated order from the cycle's port, wrapping.
	start := uint(int(cycle) % int(topology.NumPorts))
	fromStart := ports >> start << start
	for _, m := range [2]uint8{fromStart, ports &^ fromStart} {
		for ; m != 0; m &= m - 1 {
			p := topology.Port(bits.TrailingZeros8(m))
			winner, ok := r.arbitrate(cycle, p, grantedIn)
			if !ok {
				continue
			}
			grantedIn |= 1 << winner.ivc.port
			grants[n] = ac.Grant{InPort: winner.ivc.port, InVC: winner.ivc.idx, OutPort: p}
			reqs[n] = winner
			n++
		}
	}

	// Inject grant-vector corruption for upset winners (cases b-d).
	for i := range n {
		if reqs[i].upset {
			grants[i] = r.corruptGrant(grants[:n], i)
		}
	}

	var collided uint8 // bit i: grant i loses its flit in a crossbar collision
	if r.cfg.ACEnabled {
		n = r.screenSA(cycle, grants[:n], reqs[:n])
	} else {
		// Unscreened, an upset grant goes where it now points. A shifter
		// takes one flit per VC per cycle, so when another grant of this
		// cycle points at the same output the crossbar collides (case c)
		// and the upset grant's flit is lost — decided before anything is
		// sent.
		for i := range n {
			for j := range n {
				if j != i && reqs[i].upset && grants[j].OutPort == grants[i].OutPort {
					collided |= 1 << i
				}
			}
		}
	}

	for i := range n {
		r.executeGrant(cycle, grants[i], reqs[i].upset && !r.cfg.ACEnabled, collided&(1<<i) != 0)
	}
}

// screenSA runs the Allocation Comparator over the cycle's grants (§4.3)
// and compacts the ones it passes to the front of grants and reqs,
// returning their number. The comparator screens every router's grant
// vector every cycle, empty or not, so Events.ACChecks does not count the
// screens here: that count is a function of the clock, which the network
// adds where it reads the counters. A cancelled grant's flit
// retries next cycle (one cycle of latency) and, in the parallelised
// pipelines, neighbors are NACKed to ignore the squashed transmission.
// The binding each grant is checked against is its winner's own: a
// winner is an Active input VC, and corruptGrant rewrites nothing but
// OutPort.
func (r *Router) screenSA(cycle uint64, grants []ac.Grant, reqs []saRequest) int {
	var bound [topology.NumPorts]topology.Port
	for i, req := range reqs {
		bound[i] = req.ivc.outPort
	}
	var verdicts [topology.NumPorts]ac.Violation
	kept := 0
	for i, v := range ac.CheckSAInto(verdicts[:0], grants, bound[:len(grants)], int(topology.NumPorts)) {
		if v == ac.None {
			grants[kept], reqs[kept] = grants[i], reqs[i]
			kept++
			continue
		}
		r.cfg.Counters.AddCorrected(fault.SALogic)
		r.cfg.Events.NACKs++
		r.emit(trace.ACMismatch, cycle, int8(grants[i].InPort), int8(grants[i].InVC), 0, 0, trace.AuxSA)
	}
	return kept
}

// arbitrate runs switch allocation for output port p: replay takes the
// channel if one is pending (§3.1), otherwise the requesters are polled
// from the port's round-robin origin and the first eligible one wins.
// grantedIn masks input ports already granted this cycle. ok is false
// when the port grants nothing. A clear txReplay bit means no replay
// (the port-masks law), so only a set one costs a look at the queue.
func (r *Router) arbitrate(cycle uint64, p topology.Port, grantedIn uint8) (winner saRequest, ok bool) {
	op := r.out[p]
	if r.txReplay&(1<<p) != 0 {
		if op.tx.HasReplay() {
			op.tx.TickReplay(cycle)
			return winner, false
		}
		r.txReplay &^= 1 << p
	}
	// The winner is held by value: taking a loop-local request's address
	// would heap-allocate it every allocation round.
	won := false
	for _, m := range rotated(r.saMask[p], op.saRR%len(r.flatVCs)) {
		for ; m != 0; m &= m - 1 {
			ivc := r.flatVCs[bits.TrailingZeros64(m)]
			if r.eligibleForSA(ivc, p, cycle) && grantedIn&(1<<ivc.port) == 0 {
				winner, won = r.saRequestFor(ivc, winner, won)
			}
		}
	}
	if !won {
		return winner, false
	}
	op.saRR++
	if winner.upset && !winner.ivc.upsetWins(r) {
		// Case (a) of §4.3: the upset suppressed the grant. The flit
		// keeps requesting; one cycle lost, nothing to correct.
		r.cfg.Counters.AddUndetected(fault.SALogic)
		return winner, false
	}
	return winner, true
}

// upsetWins decides whether an SA upset on a winning request corrupts the
// grant (cases b-d) rather than suppressing it (case a). Drawn from the
// injector stream to stay deterministic.
func (v *inputVC) upsetWins(r *Router) bool { return r.cfg.SAFault.Pick(4) != 0 }

// corruptGrant damages grant i the way §4.3 describes: misdirection to a
// wrong output (b), collision with another grant's output (c), or
// multicast is approximated as misdirection of the duplicate (d).
func (r *Router) corruptGrant(grants []ac.Grant, i int) ac.Grant {
	g := grants[i]
	switch r.cfg.SAFault.Pick(2) {
	case 0: // wrong output port
		shift := 1 + r.cfg.SAFault.Pick(int(topology.NumPorts)-1)
		g.OutPort = topology.Port((int(g.OutPort) + shift) % int(topology.NumPorts))
	default: // crossbar collision with another granted output
		if len(grants) > 1 {
			j := r.cfg.SAFault.Pick(len(grants) - 1)
			if j >= i {
				j++
			}
			g.OutPort = grants[j].OutPort
		} else {
			shift := 1 + r.cfg.SAFault.Pick(int(topology.NumPorts)-1)
			g.OutPort = topology.Port((int(g.OutPort) + shift) % int(topology.NumPorts))
		}
	}
	return g
}

// eligibleForSA reports whether ivc may request output port p this cycle.
func (r *Router) eligibleForSA(ivc *inputVC, p topology.Port, cycle uint64) bool {
	if ivc.state != vcActive || ivc.outPort != p {
		return false
	}
	if ivc.outVC < 0 || ivc.outVC >= r.cfg.VCs {
		return false // scenario-1 VA corruption left the packet stranded
	}
	f := ivc.frontSlot()
	if f == nil {
		return false
	}
	if f.Type == flit.Head && cycle < ivc.earliestSA {
		return false
	}
	if r.out[p].tx.Credits(ivc.outVC) <= 0 {
		r.creditStalls++ // downstream backpressure is the only blocker
		return false
	}
	return true
}

// executeGrant pops the granted flit, traverses the crossbar, and puts it
// on the wire. corrupted marks an uncaught SA corruption (AC-off
// ablation): the flit goes to the corrupted grant's port if that is
// physically possible, otherwise it is lost — as it is when collided
// reports another grant on that port this cycle.
func (r *Router) executeGrant(cycle uint64, g ac.Grant, corrupted, collided bool) {
	ivc := r.in[g.InPort].vcs[g.InVC]
	var f flit.Flit
	fromBuf := r.takeFront(ivc, &f)
	if fromBuf {
		r.in[g.InPort].rx.ReturnCredit(g.InVC)
	}
	r.cfg.Events.BufReads++
	r.cfg.Events.XbTraversals++
	if r.cfg.Bus.Enabled() {
		var aux uint64
		if fromBuf {
			aux = trace.DequeuedFromBuffer
		}
		r.emit(trace.FlitDequeued, cycle, int8(g.InPort), int8(g.InVC), uint64(f.PID), f.Seq, aux)
	}
	if r.cfg.XbarFault.Upset() {
		// §4.4: a transient fault in the crossbar flips one datapath bit
		// after this hop's check and before the output captures the flit
		// for retransmission. The next hop corrects it where it decodes
		// (every header; HBH and FEC data); an E2E body or tail flit
		// carries it to the destination, which condemns the packet.
		r.cfg.Counters.AddInjected(fault.XbarError)
		r.cfg.Counters.AddCorrected(fault.XbarError)
		f.Word = ecc.FlipDataBit(f.Word, r.cfg.XbarFault.Pick(64))
	}
	ivc.lastProgress = cycle
	ivc.probeOutstanding = false

	op := r.out[g.OutPort]
	vc := ivc.outVC
	switch {
	case collided || op == nil || vc >= r.cfg.VCs ||
		corrupted && op.tx.Credits(vc) <= 0 || op.tx.HasReplay():
		// Uncaught corruption pointed nowhere usable — a collision, no
		// port or VC, no credit, or a port busy replaying: the flit is lost.
		r.strayFlits++
		r.cfg.Counters.AddUndetected(fault.SALogic)
		r.emitDrop(cycle, g.InPort, g.InVC, &f, trace.DropSALost)
	default:
		if r.cfg.DeadSend != nil && g.OutPort != topology.Local && !r.cfg.Topo.LinkUp(r.id, g.OutPort) {
			r.cfg.DeadSend(cycle, r.id, g.OutPort, vc, uint64(f.PID))
		}
		op.tx.SendFlit(&f, vc, cycle)
		if corrupted {
			r.cfg.Counters.AddUndetected(fault.SALogic)
		}
	}

	if f.Type == flit.Tail {
		// Tail releases the wormhole (close the VA state entry and free
		// the input VC for the next packet).
		if ivc.outPort.Valid() && r.out[ivc.outPort] != nil && ivc.outVC < r.cfg.VCs {
			r.out[ivc.outPort].vcs[ivc.outVC] = outputVC{}
		}
		r.resetVC(ivc, cycle)
	}
}

// emitDrop publishes a terminal flit-loss event with its reason code, so
// conservation audits can account for every discarded flit.
func (r *Router) emitDrop(cycle uint64, port topology.Port, vc int, f *flit.Flit, reason uint64) {
	r.emit(trace.FlitDropped, cycle, int8(port), int8(vc), uint64(f.PID), f.Seq, reason)
}

// emit publishes one of the router's events at (port, vc), -1 for none.
// Hot paths test r.cfg.Bus.Enabled() first, so a disabled bus costs them
// no call.
func (r *Router) emit(kind trace.Kind, cycle uint64, port, vc int8, pid uint64, seq uint8, aux uint64) {
	if r.cfg.Bus.Enabled() {
		r.cfg.Bus.Emit(trace.Event{
			Cycle: cycle, Kind: kind, Node: int32(r.id), Port: port, VC: vc,
			PID: pid, Seq: seq, Aux: aux,
		})
	}
}

// BufferOccupancy returns the input VC buffers' summed occupancy and
// capacity (the transmission-buffer utilization metric of Fig. 8).
func (r *Router) BufferOccupancy() (occupied, capacity int) {
	return r.buffered, r.bufCapTotal
}

// ShifterOccupancy returns retransmission-buffer occupancy and capacity
// (the metric of Fig. 9) at clock, the kernel's cycle: the entries the
// output ports sent recently enough to be inside their NACK window,
// which is a function of the clock — the reading is the same whether or
// not this router has ticked lately. Flits parked during deadlock
// recovery conceptually occupy the shifters (that is the
// resource-sharing point of §3.2), so pending queues count as occupancy.
func (r *Router) ShifterOccupancy(clock uint64) (occupied, capacity int) {
	return r.parked + r.sends.Live(clock), r.shCapTotal
}

// PortMarks reports port p's three mask bits (see the rxPending field),
// for the mask-soundness invariant: whoever holds the port's channels
// checks that a clear bit really means nothing to service.
func (r *Router) PortMarks(p topology.Port) (rxPending, txPending, txReplay bool) {
	bit := uint8(1) << p
	return r.rxPending&bit != 0, r.txPending&bit != 0, r.txReplay&bit != 0
}

// InRecovery reports whether the router is in deadlock-recovery mode.
func (r *Router) InRecovery() bool { return r.inRecovery }

// Recoveries returns how many times this router entered recovery mode.
func (r *Router) Recoveries() uint64 { return r.recoveries }

// ProbesSent returns how many suspicion probes this router originated.
func (r *Router) ProbesSent() uint64 { return r.probesSent }

// WormholeViolations returns how many flits were dropped due to corrupted
// wormhole state (nonzero only with unprotected logic faults).
func (r *Router) WormholeViolations() uint64 { return r.wormholeViolations }

// StrayFlits returns how many flits were lost to uncaught misdirections.
func (r *Router) StrayFlits() uint64 { return r.strayFlits }

// CreditStalls returns the cumulative count of switch-allocation
// attempts denied purely by exhausted downstream credits — the
// backpressure gauge of the metrics registry.
func (r *Router) CreditStalls() uint64 { return r.creditStalls }

// ProbeSeenLen returns the number of live probe-memory entries (Rule 3
// validity records). Soak tests assert it stays bounded by the pruning
// window.
func (r *Router) ProbeSeenLen() int { return len(r.probeSeen) }

// DebugVCs renders a one-line summary of every non-idle input VC: state,
// occupancy (buffer+pending), blocked time, and allocation. Test tooling.
func (r *Router) DebugVCs(cycle uint64) string {
	s := ""
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.in[p] == nil {
			continue
		}
		for _, ivc := range r.in[p].vcs {
			if ivc.state == vcIdle && ivc.occupied() == 0 {
				continue
			}
			st := "I"
			switch ivc.state {
			case vcVAWait:
				st = "V"
			case vcActive:
				st = "A"
			}
			s += fmt.Sprintf("[%v%d %s occ%d pend%d blk%d ->%v/%d] ", p, ivc.idx, st, ivc.buf.Len(), len(ivc.queued()), ivc.blockedFor(cycle), ivc.outPort, ivc.outVC)
		}
	}
	return s
}

// checkInvariants validates internal consistency: every busy output VC
// must be owned by an active input VC bound back to it, and every active
// input VC's binding must be marked busy. It returns a description of the
// first violation, or "".
func (r *Router) checkInvariants() string {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		op := r.out[p]
		if op == nil {
			continue
		}
		for v := range op.vcs {
			if !op.vcs[v].busy {
				continue
			}
			own := op.vcs[v]
			if r.in[own.inPort] == nil || own.inVC >= len(r.in[own.inPort].vcs) {
				return fmt.Sprintf("router %d: out %v/%d owned by missing VC %v/%d", r.id, p, v, own.inPort, own.inVC)
			}
			ivc := r.in[own.inPort].vcs[own.inVC]
			if ivc.state != vcActive || ivc.outPort != p || ivc.outVC != v {
				return fmt.Sprintf("router %d: out %v/%d owner %v/%d in state %d bound to %v/%d (leak)",
					r.id, p, v, own.inPort, own.inVC, ivc.state, ivc.outPort, ivc.outVC)
			}
		}
	}
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.in[p] == nil {
			continue
		}
		for _, ivc := range r.in[p].vcs {
			if ivc.state != vcActive {
				continue
			}
			if !ivc.outPort.Valid() || r.out[ivc.outPort] == nil || ivc.outVC < 0 || ivc.outVC >= r.cfg.VCs {
				continue // deliberately stranded by an uncaught fault
			}
			ov := r.out[ivc.outPort].vcs[ivc.outVC]
			if !ov.busy || ov.inPort != p || ov.inVC != ivc.idx {
				return fmt.Sprintf("router %d: active VC %v/%d binding %v/%d not reserved for it (busy=%v owner=%v/%d)",
					r.id, p, ivc.idx, ivc.outPort, ivc.outVC, ov.busy, ov.inPort, ov.inVC)
			}
		}
	}
	return ""
}

// VCBufLen returns the occupancy of one input VC buffer — the flits that
// still hold upstream credits. Parked (pending) flits are excluded: their
// credits were returned when recovery parked them. Invariant-checker
// inspection; 0 for unattached ports.
func (r *Router) VCBufLen(p topology.Port, vc int) int {
	ip := r.in[p]
	if ip == nil || vc < 0 || vc >= len(ip.vcs) {
		return 0
	}
	return ip.vcs[vc].buf.Len()
}

// EachResidentFlit visits every data flit currently held inside the
// router: input VC buffers and recovery-parked pending queues. Flits in
// output-side retransmission machinery are visited via the transmitters
// (EachRetained). Invariant-checker inspection.
func (r *Router) EachResidentFlit(fn func(flit.Flit)) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.in[p] == nil {
			continue
		}
		for _, ivc := range r.in[p].vcs {
			for _, f := range ivc.buf.Snapshot() {
				fn(f)
			}
			for _, f := range ivc.queued() {
				fn(f)
			}
		}
	}
}

// EachRetainedFlit visits every flit the router's transmitters can still
// resend (replay queues and retransmission shifters). Invariant-checker
// inspection.
func (r *Router) EachRetainedFlit(fn func(flit.Flit)) {
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.out[p] != nil {
			r.out[p].tx.EachRetained(fn)
		}
	}
}

// AuditInvariants runs the per-cycle structural audit at a cycle boundary
// (clock = the cycle about to tick): the VA-binding consistency of
// checkInvariants, the running occupancy counts against a walk of the
// VCs, every output port's retransmission-buffer soundness,
// and the probe-memory bound — pruning runs every probeSeenWindow cycles
// and discards entries older than the window, so no entry may be older
// than 3x the window (2x from pruning cadence plus slack for entries
// refreshed just before a prune). It returns a description of the first
// violation, or "".
func (r *Router) AuditInvariants(clock uint64) string {
	if s := r.checkInvariants(); s != "" {
		return s
	}
	buffered, parked := 0, 0
	for _, ivc := range r.flatVCs {
		if ivc != nil {
			buffered += ivc.buf.Len()
			parked += len(ivc.queued())
		}
	}
	if buffered != r.buffered || parked != r.parked {
		return fmt.Sprintf("router %d: occupancy counts %d buffered / %d parked, VCs hold %d / %d",
			r.id, r.buffered, r.parked, buffered, parked)
	}
	inWindow := 0
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.out[p] == nil {
			continue
		}
		if s := r.out[p].tx.AuditRetrans(clock); s != "" {
			return fmt.Sprintf("router %d out %v: %s", r.id, p, s)
		}
		o, _ := r.out[p].tx.ShifterOccupancy()
		inWindow += o
	}
	if got := r.sends.Live(clock); got != inWindow {
		return fmt.Sprintf("router %d: send window reports %d shifter entries live at %d, the ports' own windows %d",
			r.id, got, clock, inWindow)
	}
	for _, p := range r.probeSeen {
		if clock > p.at && clock-p.at > 3*probeSeenWindow {
			return fmt.Sprintf("router %d: probeSeen entry origin=%d aged %d cycles (bound %d) — prune leak",
				r.id, p.key.origin, clock-p.at, 3*probeSeenWindow)
		}
	}
	return ""
}

// AuditVCMasks checks the allocator masks against the VC state they
// summarise: waitVA, every saMask[p] and active must equal a
// recomputation from a walk of the VCs — exactly, a stale set bit would
// request for a VC that has moved on and a missing one starve a packet —
// liveVCs must cover every VC that is not (idle AND empty), and no such
// VC's blocked-time clock may reach Cthres before rule1At, or the Rule-1
// scan would sleep through it. It returns a description of the first
// violation, or "".
func (r *Router) AuditVCMasks() string {
	var waitVA, active, live uint64
	var saMask [topology.NumPorts]uint64
	for i, ivc := range r.flatVCs {
		if ivc == nil {
			continue
		}
		bit := uint64(1) << uint(i)
		switch {
		case ivc.state == vcVAWait:
			waitVA |= bit
		case ivc.state == vcActive && ivc.outPort.Valid():
			saMask[ivc.outPort] |= bit
			active |= bit
		}
		if ivc.state != vcIdle || ivc.occupied() != 0 {
			live |= bit
			if due := ivc.lastProgress + r.cfg.Cthres; due < r.rule1At {
				return fmt.Sprintf("router %d: rule1At %d, but live VC %v/%d's clock reaches Cthres at %d",
					r.id, r.rule1At, ivc.port, ivc.idx, due)
			}
		}
	}
	if waitVA != r.waitVA {
		return fmt.Sprintf("router %d: waitVA %#x, VCs in VA wait %#x", r.id, r.waitVA, waitVA)
	}
	if saMask != r.saMask {
		return fmt.Sprintf("router %d: saMask %#x, active VCs by output port %#x", r.id, r.saMask, saMask)
	}
	if active != r.active {
		return fmt.Sprintf("router %d: active %#x, active VCs with a valid port %#x", r.id, r.active, active)
	}
	if live&^r.liveVCs != 0 {
		return fmt.Sprintf("router %d: liveVCs %#x misses live VCs %#x", r.id, r.liveVCs, live&^r.liveVCs)
	}
	return ""
}

// FindPacket lists where a packet's flits currently reside in this
// router: one entry per input VC holding them, with buffer/pending
// occupancy split. Trace tooling; O(ports x VCs x depth).
func (r *Router) FindPacket(pid flit.PacketID) []string {
	var out []string
	for p := topology.Port(0); p < topology.NumPorts; p++ {
		if r.in[p] == nil {
			continue
		}
		for _, ivc := range r.in[p].vcs {
			inBuf, inPend := 0, 0
			for _, f := range ivc.buf.Snapshot() {
				if f.PID == pid {
					inBuf++
				}
			}
			for _, f := range ivc.queued() {
				if f.PID == pid {
					inPend++
				}
			}
			if inBuf+inPend == 0 {
				continue
			}
			loc := fmt.Sprintf("%v%d[buf:%d", p, ivc.idx, inBuf)
			if inPend > 0 {
				loc += fmt.Sprintf(" parked:%d", inPend)
			}
			loc += "]"
			out = append(out, loc)
		}
	}
	return out
}
