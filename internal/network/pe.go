package network

import (
	"slices"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/sim"
	"ftnoc/internal/trace"
	"ftnoc/internal/traffic"
)

// nackMagic keys the check half of a retransmission request's tail word
// (E2E/FEC baselines): the tail word is the requested packet id's low 32
// bits under nackMagic XOR a hash of them.
const nackMagic = uint64(0xE2E1F17A)

// requestWord encodes a request for pid as its tail word.
func requestWord(pid flit.PacketID) uint64 {
	id := uint64(pid) & 0xffffffff
	return (nackMagic^requestCheck(id))<<32 | id
}

// requestedPID decodes a request tail word and reports whether it passes
// its check. Errors the SEC/DED end check misses (three flips can decode
// clean to another word) fail it, so such a request reads as corrupt
// instead of replaying the wrong packet.
func requestedPID(word uint64) (flit.PacketID, bool) {
	id := word & 0xffffffff
	return flit.PacketID(id), word>>32 == nackMagic^requestCheck(id)
}

// requestCheck hashes a 32-bit id to 32 bits.
func requestCheck(id uint64) uint64 { return id * 0x9e3779b97f4a7c15 >> 32 }

// retained is an E2E/FEC source-side packet copy awaiting implicit
// acknowledgement (timeout) or a retransmission request.
type retained struct {
	pkt      flit.Packet
	deadline uint64
}

// retransReqSize is the flit count of an end-to-end retransmission
// request: a head and the tail carrying the requested packet id.
const retransReqSize = 2

// pe is one node's processing element: traffic source, packet injector,
// destination sink, and — under the E2E/FEC baselines — the end-to-end
// retransmission endpoint.
type pe struct {
	net *Network
	id  flit.NodeID
	// acct is the account this PE charges (its shard's).
	acct *account
	// seq counts the packets this PE has made; the next one's id is
	// seq·nodes + id + 1, so ids are unique without a global counter.
	seq uint64
	src *traffic.Source
	tx  *link.Transmitter
	rx  *link.Receiver
	// Injection side. queue[qHead:] are the waiting packets, front first;
	// the head index avoids re-slicing the backing array away on every pop.
	queue []flit.Packet
	qHead int
	// ctrl holds the flits of pre-built priority packets (e2e NACKs)
	// awaiting a VC, retransReqSize flits each, front first; it keeps its
	// backing array as packets leave it.
	ctrl    []flit.Flit
	vcFlits [][]flit.Flit // per VC, remaining flits of the packet being injected
	// vcBuf[v] is the reusable backing array vcFlits[v] windows into while
	// a packet is injected from VC v: a PacketSize-flit window of the
	// network's staging arena until a longer packet outgrows it.
	vcBuf [][]flit.Flit
	vcRR  int

	// nextExpected is the cycle the next Tick should see; a jump means the
	// kernel skipped this PE as quiescent and Tick must catch up first.
	nextExpected uint64

	// sink is the reassembly state per VC of the router->PE channel.
	sink []sinkVC

	// retention is the E2E/FEC source retention buffer: one copy per
	// packet whose tail has left and whose implicit acknowledgement
	// (timeout) has not come, in the order of their first injection and
	// looked up by packet id. It starts as a capacity-capped window of the
	// network's retention slab (Config.retentionWindow) and is compacted
	// in place by sweeps; only a high-water mark past the window grows it,
	// into storage of its own — the occupancy e2eBufMax reports.
	retention []retained
}

// sinkVC is the packet being reassembled on one sink VC.
type sinkVC struct {
	pid     flit.PacketID
	src     flit.NodeID
	born    uint64
	corrupt bool
	live    bool
	nextSeq uint8
}

// newPEs builds every node's PE in four slabs from s (sim.Make) however
// many there are, five under E2E/FEC: the PEs are one slice, and their
// staging slices (vcFlits and vcBuf), staging flits, sink state and
// retention capacity-capped windows of one arena per kind. PE i injects
// through up[i] and ejects from down[i].
func newPEs(s *sim.Slabs, n *Network, srcs []traffic.Source, up []link.Transmitter, down []link.Receiver) []pe {
	vcs, size := n.cfg.VCs, n.cfg.PacketSize
	pes := sim.Make[pe](s, len(srcs))
	stages := sim.Make[[]flit.Flit](s, 2*len(pes)*vcs)
	staging := sim.Make[flit.Flit](s, len(pes)*vcs*size)
	sinks := sim.Make[sinkVC](s, len(pes)*vcs)
	var retention []retained
	window := n.cfg.retentionWindow()
	if window > 0 {
		retention = sim.Make[retained](s, len(pes)*window)
	}
	for i := range pes {
		lo, hi := i*vcs, (i+1)*vcs
		p := &pes[i]
		*p = pe{
			net:       n,
			id:        flit.NodeID(i),
			acct:      n.acctOf(i),
			src:       &srcs[i],
			tx:        &up[i],
			rx:        &down[i],
			vcFlits:   stages[2*lo : 2*lo+vcs : 2*lo+vcs],
			vcBuf:     stages[2*lo+vcs : 2*hi : 2*hi],
			sink:      sinks[lo:hi:hi],
			retention: retention[i*window : i*window : (i+1)*window],
		}
		for v := range p.vcBuf {
			at := (lo + v) * size
			p.vcBuf[v] = staging[at : at : at+size]
		}
	}
	return pes
}

// retentionSweepInterval is how often (cycles) the E2E/FEC retention
// buffer is swept for expired copies.
const retentionSweepInterval = 256

// srcLookahead caps how far ahead Quiescent searches for the traffic
// source's next injection slot. Past the cap the PE simply wakes for one
// idle tick and searches again, so very low rates stay bounded-cost.
const srcLookahead = 1 << 16

// Tick runs one cycle of PE behaviour.
func (p *pe) Tick(cycle uint64) {
	if cycle > p.nextExpected {
		p.catchUp(cycle - p.nextExpected)
	}
	p.nextExpected = cycle + 1
	p.tx.BeginCycle(cycle)
	p.eject(cycle)
	p.generate(cycle)
	p.assign()
	p.inject(cycle)
	if p.net.cfg.Protection.Retains() && cycle%retentionSweepInterval == 0 {
		p.sweepRetention(cycle)
	}
}

// catchUp replays the effect of the idle cycles the kernel skipped while
// the PE was quiescent. The only per-cycle mutation an idle PE performs is
// the traffic source's sub-threshold accumulator step (sub-threshold by
// construction: Quiescent schedules the wake on the first crossing), so
// catching up is an exact replay of those additions. Once the global
// injection limit is reached the source is never ticked again — injected
// only grows — so if the limit was hit mid-sleep the accumulator is dead
// state and needs no replay.
func (p *pe) catchUp(gap uint64) {
	if p.net.injectionClosed() {
		return
	}
	p.src.Skip(gap)
}

// Quiescent implements sim.Quiescer: the PE is idle when its injection
// side has nothing queued, staged or in flight. Sink-side reassembly
// state needs no attention between arrivals — every arrival wakes the PE
// through the router->PE flit pipe. Occupied retransmission shifters do
// not keep the PE awake and ask for no wake: their entries leave the NACK
// window by the clock (link.Transmitter), and a NACK, should one ever
// come back on the PE->router channel, wakes the PE through the channel's
// hook. Two duties are purely clock-driven and covered by a timed wake:
// the traffic source's next injection slot and, while packet copies are
// retained, the next retention-sweep boundary.
func (p *pe) Quiescent(cycle uint64) (bool, uint64) {
	if p.qHead < len(p.queue) || len(p.ctrl) != 0 {
		return false, 0
	}
	for _, fs := range p.vcFlits {
		if len(fs) != 0 {
			return false, 0
		}
	}
	if p.tx.HasReplay() {
		return false, 0
	}
	var wake uint64
	if !p.net.injectionClosed() && !p.dead() {
		if k, crosses := p.src.NextCrossing(srcLookahead); crosses || k > 0 {
			if w := cycle + k; wake == 0 || w < wake {
				wake = w
			}
		}
	}
	if p.net.cfg.Protection.Retains() && len(p.retention) > 0 {
		rw := (cycle/retentionSweepInterval + 1) * retentionSweepInterval
		if wake == 0 || rw < wake {
			wake = rw
		}
	}
	return true, wake
}

// generate asks the traffic source for this cycle's injection.
func (p *pe) generate(cycle uint64) {
	if p.dead() {
		return
	}
	if p.net.injectionClosed() {
		return
	}
	dst, ok := p.src.Tick()
	if !ok {
		return
	}
	p.acct.injected++
	pid := p.nextPID()
	p.emit(trace.FlitInjected, cycle, -1, pid, uint64(dst))
	if m := p.net.mort; m != nil && !m.reachable(p.id, dst) {
		// Admission verdict: the destination is unreachable under the
		// current fault pattern, so the message gets its terminal
		// accounting now instead of wedging in the network.
		m.refuse(cycle, p, pid)
		return
	}
	p.queuePush(flit.Packet{
		ID:         pid,
		Src:        p.id,
		Dst:        dst,
		Size:       p.net.cfg.PacketSize,
		InjectedAt: cycle,
	})
}

// nextPID allocates the PE's next packet identifier.
func (p *pe) nextPID() flit.PacketID {
	p.seq++
	return flit.PacketID((p.seq-1)*uint64(len(p.net.pes)) + uint64(p.id) + 1)
}

// dead reports whether this PE's router has been killed by the mortality
// schedule: a dead core generates nothing.
func (p *pe) dead() bool {
	return p.net.mort != nil && p.net.mort.deadNode[p.id]
}

// queuePush appends a packet to the injection queue, compacting consumed
// head space first when the backing array is full.
func (p *pe) queuePush(pkt flit.Packet) {
	if p.qHead > 0 && len(p.queue) == cap(p.queue) {
		n := copy(p.queue, p.queue[p.qHead:])
		p.queue = p.queue[:n]
		p.qHead = 0
	}
	p.queue = append(sim.Grow(p.tx.Slabs(), p.queue, 1), pkt)
}

// queuePop removes and returns the front packet; the backing array is
// recycled once the queue drains.
func (p *pe) queuePop() flit.Packet {
	pkt := p.queue[p.qHead]
	p.qHead++
	if p.qHead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qHead = 0
	}
	return pkt
}

// queueFront stages a packet ahead of all waiting data traffic.
func (p *pe) queueFront(pkt flit.Packet) {
	if p.qHead > 0 {
		p.qHead--
		p.queue[p.qHead] = pkt
	} else {
		p.queue = append(sim.Grow(p.tx.Slabs(), p.queue, 1), flit.Packet{})
		copy(p.queue[1:], p.queue)
		p.queue[0] = pkt
	}
}

// assign moves the next packet (priority control first, then the data
// queue) onto an idle injection VC.
func (p *pe) assign() {
	for v := range p.vcFlits {
		if len(p.vcFlits[v]) != 0 {
			continue
		}
		switch {
		case len(p.ctrl) > 0:
			p.vcBuf[v] = append(sim.Grow(p.tx.Slabs(), p.vcBuf[v][:0], retransReqSize), p.ctrl[:retransReqSize]...)
			p.vcFlits[v] = p.vcBuf[v]
			p.ctrl = p.ctrl[:copy(p.ctrl, p.ctrl[retransReqSize:])]
		case p.qHead < len(p.queue):
			pkt := p.queuePop()
			p.vcBuf[v] = pkt.AppendFlits(sim.Grow(p.tx.Slabs(), p.vcBuf[v][:0], pkt.Size))
			p.vcFlits[v] = p.vcBuf[v]
		default:
			return
		}
	}
}

// inject sends at most one flit into the router's local port, rotating
// across VCs for fairness.
func (p *pe) inject(cycle uint64) {
	n := len(p.vcFlits)
	for i := 0; i < n; i++ {
		v := (p.vcRR + i) % n
		fs := p.vcFlits[v]
		if len(fs) == 0 || p.tx.Credits(v) <= 0 || p.tx.HasReplay() {
			continue
		}
		f := &fs[0] // read in place: the staging slot is not reused before the packet is out
		p.vcFlits[v] = fs[1:]
		p.tx.SendFlit(f, v, cycle)
		if f.Type == flit.Tail && p.net.cfg.Protection.Retains() && !f.Request {
			p.retain(retained{
				pkt:      flit.Packet{ID: f.PID, Src: f.Src, Dst: f.Dst, Size: p.net.cfg.PacketSize, InjectedAt: f.InjectedAt},
				deadline: cycle + p.net.cfg.E2ETimeout,
			})
		}
		p.vcRR = v + 1
		return
	}
}

// eject consumes the cycle's arrivals from the router and reassembles
// packets.
func (p *pe) eject(cycle uint64) {
	p.rx.Receive(cycle)
	for f := p.rx.NextData(); f != nil; f = p.rx.NextData() {
		vc := int(f.VC)
		if vc >= len(p.sink) {
			vc = 0
		}
		p.rx.ReturnCredit(vc)
		p.consume(cycle, vc, f)
	}
}

// emit publishes one of the PE's packet events: an injection or ejection
// (aux the other end's node) or a terminal loss (aux its reason), so
// conservation audits can account for every packet.
func (p *pe) emit(kind trace.Kind, cycle uint64, vc int, pid flit.PacketID, aux uint64) {
	if p.net.bus.Enabled() {
		p.net.bus.Emit(trace.Event{
			Cycle: cycle, Kind: kind, Node: int32(p.id), Port: -1, VC: int8(vc),
			PID: uint64(pid), Aux: aux,
		})
	}
}

// consume runs the destination-side integrity check and packet assembly
// for one flit.
func (p *pe) consume(cycle uint64, vc int, f *flit.Flit) {
	sk := &p.sink[vc]
	switch f.Type {
	case flit.Head:
		if sk.live {
			// Previous packet never closed: stranded wormhole debris
			// (possible only with unprotected logic faults).
			p.acct.sinkAnomalies++
			p.emit(trace.FlitDropped, cycle, vc, sk.pid, trace.DropStray)
		}
		hdr := flit.DecodeHeader(f.Word)
		*sk = sinkVC{pid: hdr.PID, src: hdr.Src, born: f.InjectedAt, live: true, nextSeq: 1, corrupt: p.flitCorrupt(f)}
		if hdr.Dst != p.id {
			// Misdelivered packet that escaped every check.
			sk.corrupt = true
			p.acct.sinkAnomalies++
		}
		return
	case flit.Body, flit.Tail:
		if !sk.live {
			p.acct.sinkAnomalies++
			p.emit(trace.FlitDropped, cycle, vc, f.PID, trace.DropStray)
			return
		}
		// Sequence continuity: a gap means flits were lost in transit
		// (e.g. a retransmission NACK lost on an unprotected handshake
		// line, §4.6).
		if f.Seq != sk.nextSeq || f.PID != sk.pid {
			sk.corrupt = true
		} else {
			sk.nextSeq++
		}
		if p.flitCorrupt(f) {
			sk.corrupt = true
		}
		if f.Type != flit.Tail {
			return
		}
	default:
		return
	}

	// Tail: packet complete.
	sk.live = false
	pid, src, born, corrupt := sk.pid, sk.src, sk.born, sk.corrupt

	if f.Request {
		// An end-to-end retransmission request addressed to us; one whose
		// tail fails its check takes the corrupt path below.
		if reqPID, ok := requestedPID(f.Word); ok && !corrupt {
			p.handleRetransRequest(cycle, reqPID)
			return
		}
		corrupt = true
	}
	if corrupt {
		// Terminal under HBH; under E2E/FEC the retransmission request may
		// still recover the packet (a later clean tail ejects it), but the
		// drop event keeps the PID accounted even if the request is lost.
		p.acct.corruptedPackets++
		p.emit(trace.FlitDropped, cycle, vc, pid, trace.DropCorrupt)
		if p.net.cfg.Protection.Retains() {
			p.sendRetransRequest(cycle, src, pid)
		}
		return
	}
	p.emit(trace.FlitEjected, cycle, vc, pid, uint64(src))
	p.net.recordDelivery(p.acct, cycle, born, int(p.id))
}

// flitCorrupt is the destination's end check (link.SiteDest): whether
// the protection policy condemns f's packet.
func (p *pe) flitCorrupt(f *flit.Flit) bool {
	prot, kind := p.net.cfg.Protection, link.KindOf(f.Type)
	if !prot.Decodes(kind, link.SiteDest) {
		return false
	}
	_, _, out := ecc.Decode(f.Word, f.Check)
	p.acct.events.ECCDecodes++
	return prot.Act(kind, link.SiteDest, out) == link.Condemn
}

// sendRetransRequest builds the 2-flit end-to-end NACK packet back to
// the source onto the control queue, where it waits ahead of all data
// traffic: packet loss recovery cannot wait behind a saturated source.
func (p *pe) sendRetransRequest(cycle uint64, src flit.NodeID, pid flit.PacketID) {
	req := flit.Packet{
		ID:         p.nextPID(),
		Src:        p.id,
		Dst:        src,
		Request:    true,
		Size:       retransReqSize,
		InjectedAt: cycle,
	}
	p.ctrl = req.AppendFlits(sim.Grow(p.tx.Slabs(), p.ctrl, retransReqSize))
	tail := &p.ctrl[len(p.ctrl)-1]
	tail.Word = requestWord(pid)
	tail.Check = ecc.Encode(tail.Word)
	p.acct.e2eNACKs++
}

// retainedAt returns the index of pid's retained copy, or -1.
func (p *pe) retainedAt(pid flit.PacketID) int {
	for i := range p.retention {
		if p.retention[i].pkt.ID == pid {
			return i
		}
	}
	return -1
}

// retain keeps a copy of a packet whose tail just left, replacing the
// copy a retransmission of it left in place, and records the buffer's
// occupancy high-water mark.
func (p *pe) retain(ret retained) {
	if i := p.retainedAt(ret.pkt.ID); i >= 0 {
		p.retention[i] = ret
	} else {
		p.retention = append(sim.Grow(p.tx.Slabs(), p.retention, 1), ret)
	}
	if occ := len(p.retention); occ > p.acct.e2eBufMax {
		p.acct.e2eBufMax = occ
	}
}

// handleRetransRequest re-injects a retained packet.
func (p *pe) handleRetransRequest(cycle uint64, pid flit.PacketID) {
	i := p.retainedAt(pid)
	if i < 0 {
		// Evicted: the packet is unrecoverable.
		p.acct.lostPackets++
		p.emit(trace.FlitDropped, cycle, -1, pid, trace.DropEvicted)
		return
	}
	ret := &p.retention[i]
	ret.deadline = cycle + p.net.cfg.E2ETimeout
	p.acct.e2eRetransmits++
	// Retransmission keeps the original injection timestamp so measured
	// latency includes the recovery round trip.
	p.queueFront(ret.pkt)
}

// eachResidentPID visits the id of every packet with state still inside
// this PE: queued or staged for injection, retained for end-to-end
// retransmission, held by the transmitter's replay machinery, or
// half-reassembled at the sink. Invariant-checker residency sweep.
func (p *pe) eachResidentPID(fn func(uint64)) {
	for _, pkt := range p.queue[p.qHead:] {
		fn(uint64(pkt.ID))
	}
	for _, f := range p.ctrl {
		fn(uint64(f.PID))
	}
	for _, fs := range p.vcFlits {
		for _, f := range fs {
			fn(uint64(f.PID))
		}
	}
	for _, ret := range p.retention {
		fn(uint64(ret.pkt.ID))
	}
	for _, sk := range p.sink {
		if sk.live {
			fn(uint64(sk.pid))
		}
	}
	p.tx.EachRetained(func(f flit.Flit) { fn(uint64(f.PID)) })
}

// sweepRetention drops copies whose implicit-ACK timeout expired,
// compacting the buffer in place.
func (p *pe) sweepRetention(cycle uint64) {
	p.retention = slices.DeleteFunc(p.retention, func(ret retained) bool { return cycle > ret.deadline })
}

// The helpers below are the PE's hard-fault surface, called only by the
// network's reconfiguration controller between kernel steps.

// killInjection discards the flits staged for injection on VC vc (the
// remainder of a packet whose leading flits are being excised upstream of
// here — or everything, when the PE's router died).
func (p *pe) killInjection(vc int, fn func(flit.Flit)) {
	for _, f := range p.vcFlits[vc] {
		if fn != nil {
			fn(f)
		}
	}
	p.vcFlits[vc] = nil
}

// killSink abandons the packet half-reassembled on sink VC vc, returning
// its identity for undeliverable accounting.
func (p *pe) killSink(vc int) (flit.PacketID, flit.NodeID, bool) {
	if vc < 0 || vc >= len(p.sink) || !p.sink[vc].live {
		return 0, 0, false
	}
	sk := &p.sink[vc]
	sk.live = false
	return sk.pid, sk.src, true
}

// killQueued destroys every packet still waiting in the injection queue
// and every staged control packet (router death).
func (p *pe) killQueued(acc *killAcc) {
	for _, pkt := range p.queue[p.qHead:] {
		acc.addPID(pkt.ID, pkt.Src)
	}
	p.queue = p.queue[:0]
	p.qHead = 0
	for _, f := range p.ctrl {
		acc.observe(f)
	}
	p.ctrl = p.ctrl[:0]
}

// killRetention drops every end-to-end retention copy: a dead source can
// never service a retransmission request anyway.
func (p *pe) killRetention() {
	p.retention = p.retention[:0]
}

// evictRetention drops one retained copy (its packet was ruled
// undeliverable; a retransmission would head back into the dead region).
func (p *pe) evictRetention(pid flit.PacketID) {
	if i := p.retainedAt(pid); i >= 0 {
		p.retention = slices.Delete(p.retention, i, i+1)
	}
}

// dropUnreachableQueued re-validates the injection queue against the
// post-fault connectivity at a death boundary: queued messages whose
// destination became unreachable get their undeliverable verdict here
// instead of wedging in the network. Stale control packets to
// unreachable destinations are discarded silently (not messages).
func (p *pe) dropUnreachableQueued(cycle uint64) {
	m := p.net.mort
	kept := p.queue[:p.qHead]
	for _, pkt := range p.queue[p.qHead:] {
		if m.reachable(p.id, pkt.Dst) {
			kept = append(kept, pkt)
			continue
		}
		if m.kill(pkt.ID) {
			m.undeliverable++
			p.acct.lastEject = cycle
			p.emit(trace.FlitDropped, cycle, -1, pkt.ID, trace.DropUnreachable)
		}
	}
	p.queue = kept
	keptCtrl := p.ctrl[:0]
	for at := 0; at < len(p.ctrl); at += retransReqSize {
		if req := p.ctrl[at : at+retransReqSize]; m.reachable(p.id, req[0].Dst) {
			keptCtrl = append(keptCtrl, req...)
		}
	}
	p.ctrl = keptCtrl
}
