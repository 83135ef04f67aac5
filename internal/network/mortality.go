package network

import (
	"cmp"
	"slices"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
)

// This file is the hard-fault regime: the reconfiguration controller
// that applies the mortality schedule, excises every wormhole severed by
// a death, and accounts messages that can no longer be delivered. The
// topology's live-link mask and deadNode are the one record of what has
// died: routing, admission and the dead-send law all read them.
// Everything here runs serially between kernel steps — Step advances
// exactly one cycle whoever sleeps, so death boundaries land identically
// with and without sleeping actors.

// wedgeSweepInterval is how often (cycles) the controller scans for
// worms waiting on an allocation that can never come (their legal
// candidate set is empty under the post-fault topology) and excises
// them. Only runs once something has died.
const wedgeSweepInterval = 64

// mortDirs is the deterministic direction order of every controller walk.
var mortDirs = [...]topology.Port{topology.North, topology.East, topology.South, topology.West}

// mortalityState is the per-run hard-fault state. It and every buffer it
// grows live in the build's store (slabs): it runs between steps of a
// network that never shards, so shard 0's store is the only one it uses.
type mortalityState struct {
	n     *Network
	slabs *sim.Slabs
	route *routing.Memo              // every router's routing function
	fa    *routing.FaultAdaptiveFunc // route's function; nil under deterministic routing

	timeline []fault.Death
	next     int

	// comp is the connected-component label of each node over live
	// links; deadNode marks killed routers. bfs is the labelling's queue
	// (a node enters it at most once).
	comp     []int32
	deadNode []bool
	bfs      []flit.NodeID

	// killed dedupes packet verdicts: a packet destroyed by a boundary
	// kill or excised by a wedge sweep is counted undeliverable exactly
	// once (a message refused at admission is counted by refuse alone).
	// It is the killed IDs in ascending order, grown in the store, so it
	// grows with the kills, not with the IDs the run hands out.
	killed        []flit.PacketID
	undeliverable uint64

	// acc is every boundary's and sweep's kill accumulator in turn, and
	// sites a sweep's stuck worms; both keep their buffers across uses.
	acc   killAcc
	sites []site

	deadLinks   int
	deadRouters int
	anyDeath    bool

	// Post-fault throughput window: deliveries after the last applied
	// death.
	lastDeathCycle       uint64
	deliveredAtLastDeath uint64
}

// newMortalityState builds the controller and its death timeline, with
// hazard deaths pre-sampled from the run seed so the schedule is
// reproducible.
func newMortalityState(s *sim.Slabs, n *Network, route *routing.Memo) *mortalityState {
	nodes := n.topo.Nodes()
	m := &sim.Make[mortalityState](s, 1)[0]
	*m = mortalityState{
		n:        n,
		slabs:    s,
		route:    route,
		deadNode: sim.Make[bool](s, nodes),
		comp:     sim.Make[int32](s, nodes),
		bfs:      sim.Make[flit.NodeID](s, nodes)[:0],
		timeline: n.cfg.Faults.Mortality.Timeline(s, n.topo, n.cfg.Seed, n.cfg.MaxCycles),
		acc:      killAcc{slabs: s},
	}
	m.fa, _ = route.Func.(*routing.FaultAdaptiveFunc)
	m.recomputeComponents()
	return m
}

// preStep runs the controller for cycle c, before the kernel executes it:
// apply due deaths, reconfigure routing, and periodically excise worms
// that can no longer make progress.
func (m *mortalityState) preStep(c uint64) {
	boundary := false
	for m.next < len(m.timeline) && m.timeline[m.next].Cycle <= c {
		ev := m.timeline[m.next]
		m.next++
		if m.applyDeath(c, ev) {
			boundary = true
		}
	}
	if boundary {
		m.reconfigure(c)
	}
	if m.anyDeath && c%wedgeSweepInterval == 0 {
		m.sweepStuckWorms(c)
	}
}

func (m *mortalityState) applyDeath(c uint64, d fault.Death) bool {
	if d.Router {
		return m.killRouter(c, d.Node)
	}
	return m.killLinkPair(c, d.Node, d.Dir)
}

// reconfigure rebuilds the routing epoch after a boundary: new up*/down*
// orientation, the network's route memo flushed once, and rewritten
// candidate sets for worms still waiting on the old epoch. Deterministic
// routing has nothing to rebuild — its tables are topology-blind.
// Connectivity components and the PE injection queues are refreshed
// under every routing function.
func (m *mortalityState) reconfigure(c uint64) {
	if m.fa != nil {
		m.fa.Rebuild()
		m.route.Flush()
		for _, r := range m.n.routers {
			r.RefreshWaitingRoutes()
		}
	}
	m.recomputeComponents()
	for _, p := range m.n.pes {
		if !m.deadNode[p.id] {
			p.dropUnreachableQueued(c)
		}
	}
}

// recomputeComponents labels connected components over live links.
func (m *mortalityState) recomputeComponents() {
	nodes := m.n.topo.Nodes()
	for i := range m.comp {
		m.comp[i] = -1
	}
	next := int32(0)
	for s := 0; s < nodes; s++ {
		if m.comp[s] >= 0 {
			continue
		}
		m.comp[s] = next
		q := append(m.bfs[:0], flit.NodeID(s))
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, d := range mortDirs {
				if !m.n.topo.LinkUp(v, d) {
					continue
				}
				nb, _ := m.n.topo.Neighbor(v, d)
				if m.comp[nb] < 0 {
					m.comp[nb] = next
					q = append(q, nb)
				}
			}
		}
		next++
	}
}

// reachable reports whether a message from src can still reach dst: both
// routers live and in one connected component. Up*/down* reaches every
// pair in a component; under deterministic routing a connected pair may
// still be undeliverable (the fixed path crosses a dead link), which the
// wedge sweep converts into an undeliverable verdict when the worm jams.
func (m *mortalityState) reachable(src, dst flit.NodeID) bool {
	return !m.deadNode[src] && !m.deadNode[dst] && m.comp[src] == m.comp[dst]
}

// reachablePairFraction is the fraction of ordered node pairs that can
// still communicate — the paper-style degradation metric.
func (m *mortalityState) reachablePairFraction() float64 {
	nodes := len(m.comp)
	if nodes <= 1 {
		return 1
	}
	sizes := sim.Make[int](m.slabs, nodes) // by label: labels are below nodes
	for i, cp := range m.comp {
		if !m.deadNode[i] {
			sizes[cp]++
		}
	}
	pairs := 0
	for _, s := range sizes {
		pairs += s * (s - 1)
	}
	return float64(pairs) / float64(nodes*(nodes-1))
}

// postFaultThroughput is the delivered flits/node/cycle over the window
// after the last applied death (whole run when nothing died).
func (m *mortalityState) postFaultThroughput(delivered, cycles uint64) float64 {
	window := cycles - m.lastDeathCycle
	if window == 0 {
		return 0
	}
	msgs := delivered - m.deliveredAtLastDeath
	return float64(msgs*uint64(m.n.cfg.PacketSize)) / float64(window) / float64(m.n.topo.Nodes())
}

func (m *mortalityState) noteDeath(c uint64) {
	m.anyDeath = true
	m.lastDeathCycle = c
	m.deliveredAtLastDeath = m.n.delivered()
}

func (m *mortalityState) emit(e trace.Event) {
	if m.n.bus.Enabled() {
		m.n.bus.Emit(e)
	}
}

// killAcc accumulates the packets touched by one boundary's kill walks,
// one record per destroyed data flit or packet known by identity, in
// walk order; account merges a packet's records.
type killAcc struct {
	slabs *sim.Slabs
	flits int
	pids  []killInfo
}

type killInfo struct {
	pid  flit.PacketID
	src  flit.NodeID
	ctrl bool
}

// newAcc empties the state's one accumulator for a boundary or sweep.
func (m *mortalityState) newAcc() *killAcc {
	m.acc.flits, m.acc.pids = 0, m.acc.pids[:0]
	return &m.acc
}

// observe records one destroyed flit. End-to-end retransmission requests
// are tagged as control traffic: they carry allocated PIDs but are not
// messages, so they must not count toward the undeliverable tally.
func (a *killAcc) observe(f flit.Flit) {
	a.flits++
	if f.IsData() {
		a.pids = append(sim.Grow(a.slabs, a.pids, 1), killInfo{pid: f.PID, src: f.Src, ctrl: f.Request})
	}
}

// addPID records a packet known only by identity (queued at a PE, or
// half-reassembled at a sink) rather than through a destroyed flit.
func (a *killAcc) addPID(pid flit.PacketID, src flit.NodeID) {
	a.pids = append(sim.Grow(a.slabs, a.pids, 1), killInfo{pid: pid, src: src})
}

// account issues one terminal verdict per destroyed packet, in packet ID
// order: mark it killed, evict the source's retention copy (a
// retransmission would head straight back into the dead region), publish
// the terminal drop for the conservation ledger, and bump the
// undeliverable tally. A packet's source is its last record's, and it is
// control traffic if any record says so.
func (m *mortalityState) account(c uint64, a *killAcc, reason uint64) {
	slices.SortStableFunc(a.pids, func(x, y killInfo) int { return cmp.Compare(x.pid, y.pid) })
	for i := 0; i < len(a.pids); {
		info := a.pids[i]
		for i++; i < len(a.pids) && a.pids[i].pid == info.pid; i++ {
			info.src, info.ctrl = a.pids[i].src, info.ctrl || a.pids[i].ctrl
		}
		pid := info.pid
		if !m.kill(pid) {
			continue
		}
		if int(info.src) < len(m.n.pes) {
			m.n.pes[info.src].evictRetention(pid)
		}
		m.emit(trace.Event{
			Cycle: c, Kind: trace.FlitDropped,
			Node: int32(info.src), Port: -1, VC: -1,
			PID: uint64(pid), Aux: reason,
		})
		if info.ctrl {
			continue
		}
		m.undeliverable++
		// A terminal verdict is progress for stall detection (a network
		// with hard-fault state is all shard 0).
		m.n.acct[0].lastEject = c
	}
}

// refuse is the admission-time verdict: a freshly generated message whose
// destination is unreachable is counted undeliverable immediately instead
// of being injected to wedge in the network. Its id stays out of the
// killed set: the message never existed anywhere a later verdict could
// find it.
func (m *mortalityState) refuse(cycle uint64, p *pe, pid flit.PacketID) {
	m.undeliverable++
	p.acct.lastEject = cycle
	p.emit(trace.FlitDropped, cycle, -1, pid, trace.DropUnreachable)
}

// kill records pid's undeliverable verdict, reporting false if it had
// one already.
func (m *mortalityState) kill(pid flit.PacketID) bool {
	i, had := slices.BinarySearch(m.killed, pid)
	if !had {
		m.killed = slices.Insert(sim.Grow(m.slabs, m.killed, 1), i, pid)
	}
	return !had
}

func (m *mortalityState) chanOf(from flit.NodeID, d topology.Port) *link.Channel {
	return m.n.chanAt[int(from)*int(topology.NumPorts)+int(d)]
}

// killLinkPair kills the physical link (from, dir) in both directions.
// Returns false if it was already fully dead.
func (m *mortalityState) killLinkPair(c uint64, from flit.NodeID, dir topology.Port) bool {
	to, ok := m.n.topo.Neighbor(from, dir)
	if !ok {
		return false
	}
	fwd := m.n.topo.LinkUp(from, dir)
	rev := m.n.topo.LinkUp(to, dir.Opposite())
	if !fwd && !rev {
		return false
	}
	acc := m.newAcc()
	if fwd {
		m.killDirected(c, from, dir, acc)
	}
	if rev {
		m.killDirected(c, to, dir.Opposite(), acc)
	}
	m.account(c, acc, trace.DropLinkDead)
	m.deadLinks++
	m.noteDeath(c)
	return true
}

// killDirected kills the directed link a -> neighbor(a,d) and excises
// every wormhole with a flit on it: worms crossing it are resolved from
// the transmitter's output VCs back upstream to their source and from the
// receiver's input VCs forward to their sink; in-flight wire traffic,
// retransmission shifters and replay copies are destroyed with them.
func (m *mortalityState) killDirected(c uint64, a flit.NodeID, d topology.Port, acc *killAcc) {
	b, _ := m.n.topo.Neighbor(a, d)
	m.n.topo.FailLink(a, d)
	before := acc.flits
	r := m.n.routers[a]
	for vc := 0; vc < m.n.cfg.VCs; vc++ {
		if ip, iv, ok := r.OutputOwner(d, vc); ok {
			m.killChainUp(c, a, ip, iv, acc)
		}
	}
	if tx := r.Transmitter(d); tx != nil {
		tx.AbandonAll(acc.observe)
	}
	if ch := m.chanOf(a, d); ch != nil {
		ch.DestroyData(-1, acc.observe)
		ch.DropNACKs()
	}
	rb := m.n.routers[b]
	q := d.Opposite()
	for vc := 0; vc < m.n.cfg.VCs; vc++ {
		if _, resident := rb.WormDst(q, vc); resident {
			m.killChainDown(c, b, q, vc, acc)
		}
	}
	m.emit(trace.Event{
		Cycle: c, Kind: trace.LinkDied,
		Node: int32(a), Port: int8(d), VC: -1,
		Aux: uint64(acc.flits - before),
	})
}

// killChainUp excises the worm segment at input VC (node, p, vc) and
// everything behind it, back to and including the source PE's staged
// flits. The full chain must go: a surviving upstream remnant would
// deliver an orphan head into the reset VC and wedge it forever.
func (m *mortalityState) killChainUp(c uint64, node flit.NodeID, p topology.Port, vc int, acc *killAcc) {
	m.n.routers[node].KillVC(c, p, vc, acc.observe)
	if p == topology.Local {
		m.n.peUp[node].DestroyData(vc, acc.observe)
		src := m.n.pes[node]
		src.tx.AbandonVC(vc, acc.observe)
		src.killInjection(vc, acc.observe)
		return
	}
	u, ok := m.n.topo.Neighbor(node, p)
	if !ok {
		return
	}
	q := p.Opposite()
	if ch := m.chanOf(u, q); ch != nil {
		ch.DestroyData(vc, acc.observe)
	}
	if tx := m.n.routers[u].Transmitter(q); tx != nil {
		tx.AbandonVC(vc, acc.observe)
	}
	if ip, iv, ok2 := m.n.routers[u].OutputOwner(q, vc); ok2 {
		m.killChainUp(c, u, ip, iv, acc)
	}
}

// killChainDown excises the worm segment at input VC (node, p, vc) and
// everything ahead of it, forward to and including the sink's
// half-reassembled packet.
func (m *mortalityState) killChainDown(c uint64, node flit.NodeID, p topology.Port, vc int, acc *killAcc) {
	r := m.n.routers[node]
	outP, outV, active := r.InputBinding(p, vc)
	r.KillVC(c, p, vc, acc.observe)
	if !active {
		return
	}
	if outP == topology.Local {
		m.n.peDown[node].DestroyData(outV, acc.observe)
		if tx := r.Transmitter(topology.Local); tx != nil {
			tx.AbandonVC(outV, acc.observe)
		}
		if pid, src, ok := m.n.pes[node].killSink(outV); ok {
			acc.addPID(pid, src)
		}
		return
	}
	dn, ok := m.n.topo.Neighbor(node, outP)
	if !ok {
		return
	}
	if ch := m.chanOf(node, outP); ch != nil {
		ch.DestroyData(outV, acc.observe)
	}
	if tx := r.Transmitter(outP); tx != nil {
		tx.AbandonVC(outV, acc.observe)
	}
	m.killChainDown(c, dn, outP.Opposite(), outV, acc)
}

// killRouter kills a router: every incident link dies (both directions),
// its PE's injection and sink state is destroyed, and the node stops
// participating. Returns false if the router was already dead.
func (m *mortalityState) killRouter(c uint64, node flit.NodeID) bool {
	if m.deadNode[node] {
		return false
	}
	m.deadNode[node] = true
	m.deadRouters++
	acc := m.newAcc()

	for _, d := range mortDirs {
		if m.n.topo.LinkUp(node, d) {
			m.killDirected(c, node, d, acc)
		}
		op := d.Opposite()
		if nb, ok := m.n.topo.Neighbor(node, d); ok && m.n.topo.LinkUp(nb, op) {
			m.killDirected(c, nb, op, acc)
		}
	}

	// Worms terminating at the dead node that already cleared its input
	// ports (bound Local), then the PE itself: staged injections, queued
	// packets, control traffic, retention copies and half-built sinks.
	r := m.n.routers[node]
	for _, p := range mortDirs {
		for vc := 0; vc < m.n.cfg.VCs; vc++ {
			if _, resident := r.WormDst(p, vc); resident {
				m.killChainDown(c, node, p, vc, acc)
			}
		}
	}
	for vc := 0; vc < m.n.cfg.VCs; vc++ {
		if _, resident := r.WormDst(topology.Local, vc); resident {
			m.killChainDown(c, node, topology.Local, vc, acc)
		}
	}
	dead := m.n.pes[node]
	m.n.peUp[node].DestroyData(-1, acc.observe)
	m.n.peUp[node].DropNACKs()
	dead.tx.AbandonAll(acc.observe)
	for vc := 0; vc < m.n.cfg.VCs; vc++ {
		dead.killInjection(vc, acc.observe)
	}
	dead.killQueued(acc)
	m.n.peDown[node].DestroyData(-1, acc.observe)
	m.n.peDown[node].DropNACKs()
	if tx := r.Transmitter(topology.Local); tx != nil {
		tx.AbandonAll(acc.observe)
	}
	for vc := 0; vc < m.n.cfg.VCs; vc++ {
		if pid, src, ok := dead.killSink(vc); ok {
			acc.addPID(pid, src)
		}
	}
	dead.killRetention()

	m.emit(trace.Event{
		Cycle: c, Kind: trace.RouterDied,
		Node: int32(node), Port: -1, VC: -1,
		Aux: uint64(acc.flits),
	})
	m.account(c, acc, trace.DropLinkDead)
	m.noteDeath(c)
	return true
}

// sweepStuckWorms excises worms waiting on allocations that can never be
// granted under the post-fault topology (empty legal candidate set —
// permanent, since hard faults are irreversible). Each is killed with its
// full upstream chain and its packet ruled undeliverable.
func (m *mortalityState) sweepStuckWorms(c uint64) {
	m.sites = m.sites[:0]
	for i, r := range m.n.routers {
		id := flit.NodeID(i)
		r.EachWaitingVC(func(p topology.Port, vc int, dst flit.NodeID) {
			if r.StuckWorm(p, vc) {
				m.sites = append(sim.Grow(m.slabs, m.sites, 1), site{id, p, vc})
			}
		})
	}
	if len(m.sites) == 0 {
		return
	}
	acc := m.newAcc()
	for _, s := range m.sites {
		// An earlier chain kill this sweep may already have excised it.
		if _, resident := m.n.routers[s.node].WormDst(s.p, s.vc); !resident {
			continue
		}
		m.killChainUp(c, s.node, s.p, s.vc, acc)
	}
	m.account(c, acc, trace.DropUnreachable)
}

// site is an input VC a sweep found holding a stuck worm.
type site struct {
	node flit.NodeID
	p    topology.Port
	vc   int
}

// deadSendViolation is wired as router.Config.DeadSend: a flit crossing
// toward a link the topology marks dead means a boundary kill sweep
// missed a worm.
func (n *Network) deadSendViolation(cycle uint64, node flit.NodeID, port topology.Port, vc int, pid uint64) {
	n.inv.Report(invariant.Violation{
		Check: "dead-send", Cycle: cycle,
		Node: int32(node), Port: int8(port), VC: int8(vc), PID: pid,
		Msg: "flit sent toward a dead link",
	})
}
