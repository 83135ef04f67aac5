package network

import (
	"context"
	"fmt"
	"strings"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/router"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
	"ftnoc/internal/traffic"
)

// Network is a fully assembled simulation: topology, routers, links, PEs,
// fault injectors and measurement probes.
type Network struct {
	cfg     Config
	kernel  sim.Kernel
	topo    *topology.Topology
	routers []*router.Router
	pes     []*pe

	// Kernel handles for wake wiring and quiescence-aware sampling.
	routerH []sim.Handle
	peH     []sim.Handle

	// acct are the run-total accounts every router, link end and PE
	// charges: account 0 for the nodes below half, account 1 for the rest
	// (shard.go). half is the node count when the network does not split,
	// and account 1 stays empty.
	acct [2]account
	half int

	// Two-shard state (shard.go). outboxes hold the cut channels' pushes
	// while the run shards (nil when it cannot); sharding is set from
	// startShards to stopShards, sharded for a step ticked as two shards,
	// and closed is InjectLimit reached, as a sharded step reads it.
	outboxes []link.Outbox
	sharding bool
	sharded  bool
	closed   bool

	txUtil     stats.Utilization
	rtUtil     stats.Utilization
	routerUtil []stats.Utilization // per-router transmission-buffer utilization

	measuring    bool
	warmupEvents stats.Events
	warmupCycle  uint64

	// Structured event bus and its built-in consumers.
	bus     trace.Bus
	journey *journeyTracker

	// Runtime invariant checking (nil unless Config.Invariants is set).
	inv   *invariant.Checker
	loops []creditLoop

	// Hard-fault channel registry: chanAt[node*NumPorts+dir] is the
	// inter-router channel transmitted by node through dir; peUp[i] and
	// peDown[i] are node i's local PE->router and router->PE channels.
	// The reconfiguration controller (mortality.go) needs direct wire
	// access to destroy in-flight traffic at death boundaries.
	chanAt []*link.Channel
	peUp   []link.Channel
	peDown []link.Channel

	// mort is the hard-fault regime state: the death timeline, dead
	// routers, connectivity components, undeliverable accounting and the
	// reconfiguration machinery. Nil unless the run is "degraded" (a
	// mortality schedule or fault-adaptive routing is configured).
	mort *mortalityState

	// slabs is New's store from sim's free list, until Run gives it back.
	slabs    *sim.Slabs
	released bool
}

// New builds a network from cfg in a slab store from sim's free list.
// Run gives the store back, cleared, and ends the network's life: only
// KernelStats, Topology and its Results stay valid. New panics on invalid
// configuration; callers handling untrusted input should Validate first.
func New(cfg Config) *Network {
	s := sim.TakeSlabs()
	n := NewIn(s, cfg)
	n.slabs = s
	return n
}

// NewIn is New in the caller's store s (nil: plain make), which Run keeps:
// the network is readable after Run, and dead once s builds again.
func NewIn(s *sim.Slabs, cfg Config) *Network { return build(s, cfg, true) }

// build is NewIn with the choice the tests need: with quiesce false no
// actor is opted into idle skipping, so the kernel ticks every router and
// PE every cycle — the oracle the differential tests hold New to.
func build(s *sim.Slabs, cfg Config, quiesce bool) *Network {
	if err := cfg.Validate(); err != nil {
		panic("network: " + err.Error())
	}
	cfg.applyDefaults()
	s.Begin()
	n := &Network{cfg: cfg}
	root := sim.NewRNG(cfg.Seed)

	n.topo = topology.New(cfg.TopologyKind, cfg.Width, cfg.Height)
	nodes := n.topo.Nodes()

	// Observability: attach the packet-journey tracker, any caller sink
	// and the invariant checker before construction, so routers capture
	// a bus that is already final. With no sinks the bus stays disabled
	// and costs nothing.
	if len(cfg.TracePIDs) > 0 {
		n.journey = newJourneyTracker(cfg.TracePIDs)
		n.bus.Attach(n.journey)
	}
	n.bus.Attach(cfg.TraceSink)
	n.inv = cfg.Invariants
	if n.inv != nil {
		n.bus.Attach(n.inv)
	}

	// A network splits its accounts and its route memo at the shard
	// boundary, so that its runs may tick two shards, unless something
	// observes it mid-step (the bus) or it has hard-fault state, whose
	// surgery and routing epochs are one-shard code; any other network is
	// all shard 0.
	hard := cfg.Faults.Mortality.Enabled() || cfg.Routing == routing.FaultAdaptive
	n.half = nodes
	if !n.bus.Enabled() && !hard {
		n.half = cutNodes(nodes)
	}
	routes := routing.NewMemos(s, routing.NewIn(s, cfg.Routing, n.topo), nodes, 0, n.half, nodes)
	if n.half == nodes {
		routes = routes[:1]
	}
	route := &routes[0]
	xyCheck := !cfg.Routing.Adaptive()

	n.routers = sim.Make[*router.Router](s, nodes)
	n.pes = sim.Make[*pe](s, nodes)
	n.chanAt = sim.Make[*link.Channel](s, nodes*int(topology.NumPorts))

	// Hard-fault regime: the mortality timeline and the reconfiguration
	// controller. Built before the routers, whose Configs wire the
	// dead-send law only when it exists.
	if hard {
		n.mort = newMortalityState(s, n, route)
	}

	counters := sim.Make[fault.Counters](s, 2)
	n.acct[0].counters, n.acct[1].counters = &counters[0], &counters[1]
	if n.bus.Enabled() {
		// Republish fault accounting as structured events, stamped with
		// the live cycle (the counters themselves are cycle-blind).
		observe := func(op fault.CounterOp, cl fault.Class) {
			var k trace.Kind
			switch op {
			case fault.OpInjected:
				k = trace.FaultInjected
			case fault.OpCorrected:
				k = trace.FaultCorrected
			case fault.OpUndetected:
				k = trace.FaultUndetected
			default:
				return
			}
			n.bus.Emit(trace.Event{
				Cycle: n.kernel.Cycle(), Kind: k,
				Node: -1, Port: -1, VC: -1, Aux: uint64(cl),
			})
		}
		n.acct[0].counters.Observer = observe
		n.acct[1].counters.Observer = observe
	}

	// Every component kind is one slab per network: construction costs a
	// constant number of allocations whatever the mesh size. The RNG
	// streams are drawn in a fixed order — root: logic, link, traffic;
	// each parent component-major, one stream per enabled fault kind —
	// and that order is what pins every run's output.
	parents := root.SplitN(s, 3)

	// Logic upsets: one injector per router per enabled class.
	logicClasses := [4]fault.Class{fault.RTLogic, fault.VALogic, fault.SALogic, fault.XbarError}
	logicRates := [4]float64{cfg.Faults.RT, cfg.Faults.VA, cfg.Faults.SA, cfg.Faults.Xbar}
	logicSlot, perRouter := streamSlots(logicRates)
	logicRNGs := parents[0].SplitN(s, nodes*perRouter)
	var logic [4][]fault.LogicInjector
	for c, slot := range logicSlot {
		if slot >= 0 {
			logic[c] = fault.NewLogicInjectors(s, nodes, logicClasses[c], logicRates[c], func(i int) *sim.RNG {
				return &logicRNGs[i*perRouter+slot]
			})
		}
	}
	injector := func(c, i int) *fault.LogicInjector {
		if logic[c] == nil {
			return nil
		}
		return &logic[c][i]
	}

	routers := router.NewRouters(s, nodes, func(i int) router.Config {
		a, route := n.acctOf(i), route
		if i >= n.half {
			route = &routes[1]
		}
		rc := router.Config{
			ID:              flit.NodeID(i),
			Topo:            n.topo,
			Route:           route,
			VCs:             cfg.VCs,
			BufDepth:        cfg.BufDepth,
			PipelineDepth:   cfg.PipelineDepth,
			ACEnabled:       cfg.ACEnabled,
			XYCheck:         xyCheck,
			RecoveryEnabled: cfg.RecoveryEnabled,
			Cthres:          cfg.Cthres,
			Events:          &a.events,
			Counters:        a.counters,
			Bus:             &n.bus,
			RTFault:         injector(0, i),
			VAFault:         injector(1, i),
			SAFault:         injector(2, i),
			XbarFault:       injector(3, i),
		}
		if n.mort != nil && n.inv != nil {
			rc.DeadSend = n.deadSendViolation
		}
		return rc
	})
	for i := range routers {
		n.routers[i] = &routers[i]
	}

	n.kernel.Reserve(s, 2*nodes) // first: the channels' pipes make the due rings in s

	// Channels: one per direction of every inter-router link, in
	// topo.Links order, then the PE <-> router local channels (fault-free,
	// §2.2). Transmitter and receiver i serve channel i of that order:
	// links, then every PE's up channel, then every PE's down channel.
	linkIDs := n.topo.Links()
	nl := len(linkIDs)
	a0 := &n.acct[0]
	links := link.NewChannels(s, &n.kernel, nl, false, &a0.events, a0.counters)
	locals := link.NewChannels(s, &n.kernel, 2*nodes, true, &a0.events, a0.counters)
	n.peUp, n.peDown = locals[:nodes:nodes], locals[nodes:]
	chanOf := func(i int) *link.Channel {
		if i < nl {
			return &links[i]
		}
		return &locals[i-nl]
	}
	txs := link.NewTransmitters(s, nl+2*nodes, chanOf, cfg.VCs, cfg.BufDepth, cfg.shifterDepth(), &a0.events, a0.counters)
	rxs := link.NewReceivers(s, nl+2*nodes, chanOf, cfg.VCs, cfg.Protection, &a0.events, a0.counters)
	if n.half < nodes {
		n.splitAccounts(s, linkIDs, links, txs, rxs)
	}

	// Inter-router link faults: per link, its injector, handshake and
	// retransmission-buffer streams, in that order.
	linkSlot, perLink := streamSlots([4]float64{cfg.Faults.Link, cfg.Faults.Handshake, cfg.Faults.RetransBuf})
	linkRNGs := parents[1].SplitN(s, nl*perLink)
	linkRNG := func(l, kind int) *sim.RNG { return &linkRNGs[l*perLink+linkSlot[kind]] }
	var injs []fault.LinkInjector
	if linkSlot[0] >= 0 {
		injs = fault.NewLinkInjectors(s, nl, cfg.Faults.Link, cfg.Faults.LinkDouble, func(l int) *sim.RNG { return linkRNG(l, 0) })
	}
	for l, id := range linkIDs {
		dst, _ := n.topo.Neighbor(id.From, id.Dir)
		ch, tx, rx := &links[l], &txs[l], &rxs[l]
		n.chanAt[int(id.From)*int(topology.NumPorts)+int(id.Dir)] = ch
		if injs != nil {
			ch.SetCorruptor(&injs[l])
		}
		if linkSlot[1] >= 0 {
			ch.SetHandshakeFaults(cfg.Faults.Handshake, cfg.TMREnabled, linkRNG(l, 1))
		}
		if linkSlot[2] >= 0 {
			tx.SetRetransBufFaults(cfg.Faults.RetransBuf, cfg.DuplicateRetrans, linkRNG(l, 2))
		}
		tx.SetTrace(&n.bus, int32(id.From), int8(id.Dir))
		rx.SetTrace(&n.bus, int32(dst), int8(id.Dir.Opposite()))
		n.routers[id.From].AttachOutput(id.Dir, tx)
		n.routers[dst].AttachInput(id.Dir.Opposite(), rx)
		if n.inv != nil {
			n.watchLink(tx, rx, ch, int32(id.From), int8(id.Dir), int(dst), id.Dir.Opposite(), false, false)
		}
	}

	// PE <-> router local channels: on the up channel the PE owns the
	// transmitter side and router i the receiver side; the down channel is
	// the mirror image.
	trafficRNGs := parents[2].SplitN(s, nodes)
	srcs := traffic.NewSources(s, 0, nodes, n.topo, cfg.Pattern, cfg.InjectionRate, cfg.PacketSize, func(i int) *sim.RNG { return &trafficRNGs[i] })
	pes := newPEs(s, n, srcs, txs[nl:nl+nodes], rxs[nl+nodes:])
	local := int8(topology.Local)
	for i := 0; i < nodes; i++ {
		upTx, upRx := &txs[nl+i], &rxs[nl+i]
		downTx, downRx := &txs[nl+nodes+i], &rxs[nl+nodes+i]
		upTx.SetTrace(&n.bus, int32(i), local)
		upRx.SetTrace(&n.bus, int32(i), local)
		n.routers[i].AttachInput(topology.Local, upRx)
		downTx.SetTrace(&n.bus, int32(i), local)
		downRx.SetTrace(&n.bus, int32(i), local)
		n.routers[i].AttachOutput(topology.Local, downTx)
		if n.inv != nil {
			n.watchLink(upTx, upRx, &n.peUp[i], int32(i), local, i, topology.Local, false, true)
			n.watchLink(downTx, downRx, &n.peDown[i], int32(i), local, i, topology.Local, true, false)
		}
		n.pes[i] = &pes[i]
	}

	// Registration order (router i, PE i, router i+1, ...) fixes the
	// intra-cycle trace-event order and must not change. The cut between
	// the kernel's shards is fixed here, once, for every run.
	handles := sim.Make[sim.Handle](s, 2*nodes)
	n.routerH, n.peH = handles[:nodes:nodes], handles[nodes:]
	for i := 0; i < nodes; i++ {
		n.routerH[i] = n.kernel.RegisterActor(n.routers[i])
		n.peH[i] = n.kernel.RegisterActor(n.pes[i])
	}
	if n.half < nodes {
		n.kernel.Split(n.routerH[n.half])
	}

	// Quiescence wiring: every flit pipe wakes its consuming actor as
	// flits become visible, and every NACK pipe wakes the
	// transmitter-owning actor — an actor sleeps with shifter entries
	// still inside their NACK window, and a NACK for one must be served on
	// the cycle it becomes visible (link.Channel.WakeTx). Nothing else on
	// a link wakes anybody: credits are counters read on demand, and
	// shifter entries expire by the clock. The wakes extend the hooks the
	// routers installed at attachment, so one delivery both marks the
	// router's port mask and wakes it. Only with all deliveries covered is
	// it sound to opt the actors into idle skipping.
	for l, id := range linkIDs {
		dst, _ := n.topo.Neighbor(id.From, id.Dir)
		links[l].WakeRx(n.routerH[dst])
		links[l].WakeTx(n.routerH[id.From])
	}
	for i := 0; i < nodes; i++ {
		n.peUp[i].WakeRx(n.routerH[i])
		n.peUp[i].WakeTx(n.peH[i])
		n.peDown[i].WakeRx(n.peH[i])
		n.peDown[i].WakeTx(n.routerH[i])
	}
	if quiesce {
		for i := 0; i < nodes; i++ {
			n.kernel.EnableQuiescence(n.routerH[i])
			n.kernel.EnableQuiescence(n.peH[i])
		}
	}

	// Metrics registry: per-router gauges, sampled by Run.
	if cfg.Metrics != nil {
		for i := range n.routers {
			r := n.routers[i]
			cfg.Metrics.Register(i, "vc-occupancy", func() float64 {
				return occupancyFraction(r.BufferOccupancy())
			})
			cfg.Metrics.Register(i, "retrans-occupancy", func() float64 {
				return occupancyFraction(r.ShifterOccupancy(n.kernel.Cycle()))
			})
			cfg.Metrics.Register(i, "credit-stalls", func() float64 {
				return float64(r.CreditStalls())
			})
		}
	}
	return n
}

// streamSlots lays out a component's RNG streams when it draws one per
// fault kind with a positive rate, in kind order: slot[k] is kind k's
// index among them (-1 when its rate is zero), and per the number each
// component draws.
func streamSlots(rates [4]float64) (slot [4]int, per int) {
	for k, rate := range rates {
		slot[k] = -1
		if rate > 0 {
			slot[k] = per
			per++
		}
	}
	return slot, per
}

// occupancyFraction turns an (occupied, capacity) pair into [0,1].
func occupancyFraction(occupied, capacity int) float64 {
	if capacity == 0 {
		return 0
	}
	return float64(occupied) / float64(capacity)
}

// Topology returns the network's topology (for tooling).
func (n *Network) Topology() *topology.Topology { return n.topo }

// Kernel exposes the simulation kernel for stepping in tests (see New).
func (n *Network) Kernel() *sim.Kernel { n.live("Kernel"); return &n.kernel }

// Routers exposes the router array (read-only use; see New).
func (n *Network) Routers() []*router.Router { n.live("Routers"); return n.routers }

// live panics, naming the call, once Run has given the slabs to later builds.
func (n *Network) live(call string) {
	if n.released {
		panic("network: " + call + " after Run: the network's slabs went back to the free list")
	}
}

// recordDelivery accounts one cleanly ejected message to a, the
// delivering PE's account; node is that PE's index, which fixes how far
// the current cycle's tick order has progressed if this delivery opens
// the measurement window. Once the window is open every delivery is
// measured; until then the WarmupMessages-th opens it, which only a
// one-shard step can see (shardStep).
func (n *Network) recordDelivery(a *account, cycle, injectedAt uint64, node int) {
	a.delivered++
	a.lastEject = cycle
	if n.measuring {
		a.latency.Record(cycle - injectedAt)
	} else if !n.sharded && n.delivered() == n.cfg.WarmupMessages {
		n.startMeasuring(cycle, node)
	}
}

// startMeasuring snapshots the event counters at the warm-up boundary
// and makes the per-router utilization tables the window's samples fill.
// When triggered by a delivery it fires mid-cycle, from PE node's tick:
// actors tick in node order (router 0, PE 0, router 1, ...), so routers
// 0..node have already ticked cycle. Pass node = -1 at a clean cycle
// boundary.
func (n *Network) startMeasuring(cycle uint64, node int) {
	n.measuring = true
	n.routerUtil = make([]stats.Utilization, len(n.routers))
	n.warmupEvents = n.eventsAt(uint64(len(n.routers))*cycle + uint64(node+1))
	n.warmupCycle = cycle
}

// eventsAt returns the event counters once ticks router ticks have run.
// The Allocation Comparator screens every router's grant vector on every
// tick, asleep or awake (router.screenSA), so those checks are not
// counted as they happen but added here, one per router tick.
func (n *Network) eventsAt(ticks uint64) stats.Events {
	ev := n.events()
	if n.cfg.ACEnabled {
		ev.ACChecks += ticks
	}
	return ev
}

// AbortCheckInterval is how often (in cycles) RunContext polls its
// context for cancellation: once cancelled, RunContext returns within
// this many simulated cycles.
const AbortCheckInterval = 256

// Run drives the simulation until TotalMessages have ejected, the network
// stalls, or MaxCycles elapse, then returns the measurements. It is the
// zero-dependency wrapper around RunContext for callers that never cancel.
func (n *Network) Run() Results { return n.run(nil) }

// RunContext is Run with cooperative cancellation: it polls ctx every
// AbortCheckInterval cycles and, once ctx is done, stops the simulation
// and returns the measurements gathered so far with Aborted set. A
// cancelled run is a partial measurement, not an error — latency and
// event counts cover whatever completed before the abort.
func (n *Network) RunContext(ctx context.Context) Results {
	return n.run(ctx.Done())
}

func (n *Network) run(done <-chan struct{}) Results {
	n.live("Run")
	if n.slabs != nil {
		// Last, panic or not: after stopShards and every read of the slabs.
		defer func() { sim.GiveSlabs(n.slabs); n.slabs, n.released = nil, true }()
	}
	if n.cfg.WarmupMessages == 0 {
		n.startMeasuring(0, -1)
	}
	n.startShards()
	defer n.stopShards() // a panic mid-run still hands back the helper
	stalled, aborted := false, false
	for n.accounted() < n.cfg.TotalMessages {
		c := n.kernel.Cycle()
		if c >= n.cfg.MaxCycles {
			break
		}
		if c > n.lastEject()+n.cfg.StallCycles && (n.delivered() > 0 || c > n.cfg.StallCycles) {
			stalled = true
			break
		}
		if done != nil && c%AbortCheckInterval == 0 {
			select {
			case <-done:
				aborted = true
			default:
			}
			if aborted {
				break
			}
		}
		if n.mort != nil {
			// Hard-fault boundary processing for cycle c, before the step
			// executes it: Step advances exactly one cycle whoever sleeps,
			// so deaths land at the same boundaries in the tests' oracle.
			n.mort.preStep(c)
			if n.accounted() >= n.cfg.TotalMessages {
				break
			}
		}
		n.step()
		if n.inv != nil {
			if cl := n.kernel.Cycle(); cl%n.inv.Every() == 0 {
				n.checkState(cl)
			}
		}
		if n.measuring {
			n.sampleUtilization()
		}
		if n.journey != nil {
			n.journey.endCycle(n.kernel.Cycle())
		}
		if n.cfg.Metrics != nil {
			n.cfg.Metrics.Tick(n.kernel.Cycle())
		}
	}
	n.stopShards()
	res := n.results(stalled)
	res.Aborted = aborted
	if n.inv != nil {
		clean := !stalled && !aborted && n.accounted() >= n.cfg.TotalMessages
		n.inv.Finalize(n.kernel.Cycle(), clean, n.residentPIDs())
	}
	return res
}

// accounted is the termination tally: messages that have reached a final
// verdict. Delivered always counts; in the hard-fault regime messages
// proven undeliverable (destination unreachable, or destroyed by a death
// boundary) count too — waiting for them would spin until MaxCycles.
func (n *Network) accounted() uint64 {
	if n.mort == nil {
		return n.delivered()
	}
	return n.delivered() + n.mort.undeliverable
}

// sampleUtilization records this cycle's buffer occupancies (Figs. 8-9)
// plus the per-router breakdown for floorplan heatmaps. A two-shard step
// has sampled its routers on the shards (barrier.ShardDone); what is left
// is adding the two sums.
func (n *Network) sampleUtilization() {
	var o occupancy
	if n.sharded {
		o = n.acct[0].occ.add(n.acct[1].occ)
	} else {
		o = n.sampleRouters(0, len(n.routers), n.kernel.Cycle())
	}
	n.txUtil.Sample(o.tx, o.txCap)
	n.rtUtil.Sample(o.rt, o.rtCap)
}

// occupancy sums routers' transmission-buffer and retransmission-buffer
// occupancies and capacities.
type occupancy struct{ tx, txCap, rt, rtCap int }

func (o occupancy) add(p occupancy) occupancy {
	return occupancy{o.tx + p.tx, o.txCap + p.txCap, o.rt + p.rt, o.rtCap + p.rtCap}
}

// sampleRouters records routers [lo, hi)'s transmission-buffer
// occupancies at clock in their own tables and returns the range's sums.
// Neither read walks the router: buffer occupancy is a running count and
// shifter occupancy sums the router's sends of the last NACKWindow cycles
// not since drained. That is a function of the clock, so a router asleep
// since its last send reads exactly what per-cycle expiry would leave.
func (n *Network) sampleRouters(lo, hi int, clock uint64) (sum occupancy) {
	for i, r := range n.routers[lo:hi] {
		o, c := r.BufferOccupancy()
		n.routerUtil[lo+i].Sample(o, c)
		sum.tx += o
		sum.txCap += c
		o, c = r.ShifterOccupancy(clock)
		sum.rt += o
		sum.rtCap += c
	}
	return sum
}

// KernelStats reports the kernel's cumulative scheduling counters: actor
// ticks executed, actor ticks skipped relative to ticking every actor
// every cycle, and ticks dispatched to actors that may sleep.
// Deliberately not part of Results — scheduling is an implementation
// detail and must not change them.
func (n *Network) KernelStats() sim.Stats { return n.kernel.Stats() }

// Snapshot renders every router's live VC state — a debugging view of
// the whole chip at the current cycle (see New).
func (n *Network) Snapshot() string {
	n.live("Snapshot")
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d, delivered %d\n", n.kernel.Cycle(), n.delivered())
	for i, r := range n.routers {
		state := r.DebugVCs(n.kernel.Cycle())
		if state == "" && !r.InRecovery() {
			continue
		}
		fmt.Fprintf(&b, "router %2d recovery=%v: %s\n", i, r.InRecovery(), state)
	}
	return b.String()
}

// results assembles the final measurement record.
func (n *Network) results(stalled bool) Results {
	// Runs end at a clean cycle boundary: every router has ticked every
	// cycle, asleep or awake.
	cycles := n.kernel.Cycle()
	total := n.eventsAt(uint64(len(n.routers)) * cycles)
	measured := stats.Events{}
	if n.measuring {
		measured = total.Sub(n.warmupEvents)
	}
	measuredCycles := uint64(0)
	if n.measuring && cycles > n.warmupCycle {
		measuredCycles = cycles - n.warmupCycle
	}
	var recoveries, probes, viol, stray uint64
	for _, r := range n.routers {
		recoveries += r.Recoveries()
		probes += r.ProbesSent()
		viol += r.WormholeViolations()
		stray += r.StrayFlits()
	}
	delivered := n.delivered()
	measuredMsgs := uint64(0)
	if delivered > n.cfg.WarmupMessages {
		measuredMsgs = delivered - n.cfg.WarmupMessages
	}
	a0, a1 := &n.acct[0], &n.acct[1]
	a0.latency.Merge(&a1.latency)
	a1.latency = stats.LatencyStats{}
	latency := &a0.latency
	res := Results{
		Cycles:                cycles,
		LatencyHist:           latency.Histogram(latencyBinWidth, latencyBins),
		MeasuredCycles:        measuredCycles,
		Delivered:             delivered,
		MeasuredMessages:      measuredMsgs,
		AvgLatency:            latency.Mean(),
		P95Latency:            latency.Percentile(95),
		MaxLatency:            latency.Max(),
		Events:                measured,
		TotalEvents:           total,
		TxBufUtil:             n.txUtil.Mean(),
		RtBufUtil:             n.rtUtil.Mean(),
		RouterTxUtil:          routerMeans(n.routerUtil),
		Counters:              a0.counters.Snapshot(a1.counters),
		Recoveries:            recoveries,
		ProbesSent:            probes,
		WormholeViolations:    viol,
		StrayFlits:            stray,
		CorruptedPackets:      a0.corruptedPackets + a1.corruptedPackets,
		LostPackets:           a0.lostPackets + a1.lostPackets,
		SinkAnomalies:         a0.sinkAnomalies + a1.sinkAnomalies,
		E2ENACKs:              a0.e2eNACKs + a1.e2eNACKs,
		E2ERetransmits:        a0.e2eRetransmits + a1.e2eRetransmits,
		E2EBufMax:             max(a0.e2eBufMax, a1.e2eBufMax),
		Traces:                n.tracesForResults(),
		Stalled:               stalled,
		ReachablePairFraction: 1,
		Throughput: stats.Throughput{
			FlitsDelivered:    measuredMsgs * uint64(n.cfg.PacketSize),
			MessagesDelivered: measuredMsgs,
			Cycles:            measuredCycles,
			Nodes:             n.topo.Nodes(),
		},
	}
	if n.mort != nil {
		res.Undeliverable = n.mort.undeliverable
		res.DeadLinks = n.mort.deadLinks
		res.DeadRouters = n.mort.deadRouters
		res.ReachablePairFraction = n.mort.reachablePairFraction()
		res.PostFaultThroughput = n.mort.postFaultThroughput(delivered, cycles)
	}
	return res
}

// Latency histogram shape: 24 bins of 10 cycles, last bin open-ended.
const (
	latencyBinWidth = 10
	latencyBins     = 24
)

// routerMeans extracts the time-averaged per-router utilizations.
func routerMeans(us []stats.Utilization) []float64 {
	if us == nil {
		return nil
	}
	out := make([]float64, len(us))
	for i := range us {
		out[i] = us[i].Mean()
	}
	return out
}

// Results is the measurement record of one simulation run. Event counts
// and latency cover the post-warm-up window; Total* fields cover the
// whole run.
type Results struct {
	Cycles           uint64
	MeasuredCycles   uint64
	Delivered        uint64
	MeasuredMessages uint64

	AvgLatency float64
	P95Latency float64
	MaxLatency float64
	// LatencyHist buckets measured message latencies into latencyBins
	// bins of latencyBinWidth cycles (last bin is open-ended).
	LatencyHist []int
	Throughput  stats.Throughput

	Events      stats.Events
	TotalEvents stats.Events

	TxBufUtil float64 // transmission (input VC) buffer utilization, Fig. 8
	RtBufUtil float64 // retransmission buffer utilization, Fig. 9
	// RouterTxUtil is the per-router breakdown of TxBufUtil, indexed by
	// node id (nil if measurement never started).
	RouterTxUtil []float64

	Counters *fault.Counters

	Recoveries         uint64
	ProbesSent         uint64
	WormholeViolations uint64
	StrayFlits         uint64
	CorruptedPackets   uint64
	LostPackets        uint64
	SinkAnomalies      uint64
	E2ENACKs           uint64
	E2ERetransmits     uint64
	E2EBufMax          int

	// Traces holds the recorded journeys of Config.TracePIDs packets,
	// keyed by packet ID, one line per location change.
	Traces map[uint64][]string

	Stalled bool
	// Aborted reports that RunContext stopped early because its context
	// was cancelled; all measurements cover only the completed prefix.
	Aborted bool

	// Hard-fault regime measurements. Undeliverable counts messages with
	// a terminal negative verdict: refused at injection because the
	// destination was unreachable, or destroyed mid-flight by a death
	// boundary or stuck-worm sweep. DeadLinks/DeadRouters are the final
	// mortality tallies. ReachablePairFraction is the fraction of ordered
	// source/destination pairs still connected at the end of the run
	// (1 when no hard-fault state exists). PostFaultThroughput is the
	// flits/node/cycle rate over the window after the last applied death
	// (equal to the whole-run rate when nothing died).
	Undeliverable         uint64
	DeadLinks             int
	DeadRouters           int
	ReachablePairFraction float64
	PostFaultThroughput   float64
}

// tracesForResults exports the journey tracker's recorded lines (nil
// when tracing was not configured).
func (n *Network) tracesForResults() map[uint64][]string {
	if n.journey == nil {
		return nil
	}
	return n.journey.export()
}

// String summarises the run for human consumption.
func (r Results) String() string {
	return fmt.Sprintf("delivered %d msgs in %d cycles: avg latency %.1f cyc, tx-util %.3f, rt-util %.3f, retrans %d, recoveries %d",
		r.Delivered, r.Cycles, r.AvgLatency, r.TxBufUtil, r.RtBufUtil, r.TotalEvents.Retransmitted, r.Recoveries)
}
