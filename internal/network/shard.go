package network

import (
	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
)

// account is one shard's share of a run's tallies. Every router, link
// end and PE charges the account of the shard it ticks in (nodes below
// Network.half: account 0), so the two shards of a step never write the
// same word; readers sum the two.
type account struct {
	events   stats.Events
	counters *fault.Counters
	latency  stats.LatencyStats

	injected  uint64
	delivered uint64
	lastEject uint64 // cycle of the latest delivery, for stall detection

	corruptedPackets uint64
	lostPackets      uint64
	sinkAnomalies    uint64
	e2eNACKs         uint64
	e2eRetransmits   uint64
	e2eBufMax        int

	// occ is the shard's routers' occupancy as a measured two-shard step
	// left it (barrier.ShardDone), for sampleUtilization to add.
	occ occupancy

	// Keep the two accounts off each other's cache lines.
	_ [64]byte
}

// acctOf returns the account node charges.
func (n *Network) acctOf(node int) *account {
	if node < n.half {
		return &n.acct[0]
	}
	return &n.acct[1]
}

// splitAccounts has every link end of the nodes at or past n.half charge
// account 1, and gives the channels that cross the cut outboxes.
// ids are the links in topo.Links order, links[l] their channels; txs
// and rxs are every channel's ends, links first (build's order).
func (n *Network) splitAccounts(s *sim.Slabs, ids []topology.LinkID, links []link.Channel, txs []link.Transmitter, rxs []link.Receiver) {
	// A mesh w nodes wide cuts at most 2w+2 channels: up to 31 wide, the
	// list takes no allocation.
	var buf [64]*link.Channel
	cut := buf[:0]
	for l, id := range ids {
		dst, _ := n.topo.Neighbor(id.From, id.Dir)
		from, to := n.acctOf(int(id.From)), n.acctOf(int(dst))
		txs[l].SetAccounts(&from.events, from.counters)
		rxs[l].SetAccounts(&to.events, to.counters)
		if from != to {
			cut = append(cut, &links[l])
		}
	}
	nodes, nl, a := n.topo.Nodes(), len(links), &n.acct[1]
	for i := n.half; i < nodes; i++ {
		for _, j := range [...]int{nl + i, nl + nodes + i} {
			txs[j].SetAccounts(&a.events, a.counters)
			rxs[j].SetAccounts(&a.events, a.counters)
		}
	}
	n.outboxes = link.NewOutboxes(s, cut)
}

// startShards has the run tick two shards where it can, and reports
// whether it will: the network was built split (build, sim.Kernel.Split)
// and the kernel claimed two cores (sim.Kernel.StartShards).
func (n *Network) startShards() bool {
	if !n.kernel.StartShards((*barrier)(n)) {
		return false
	}
	for i := range n.outboxes {
		n.outboxes[i].Open()
	}
	n.sharding = true
	return true
}

// stopShards undoes startShards; a no-op without it.
func (n *Network) stopShards() {
	if !n.sharding {
		return
	}
	// The helper may still be ticking a step the caller left by a panic,
	// pushing into the outboxes: it stops first.
	n.kernel.StopShards()
	for i := range n.outboxes {
		n.outboxes[i].Close()
	}
	n.sharding, n.sharded = false, false
}

// step advances the kernel one cycle, as two shards when the run shards
// and the step may (shardStep).
func (n *Network) step() {
	if n.sharding {
		n.sharded = n.kernel.ShardStep(n.shardStep())
	}
	n.kernel.Step()
}

// barrier is the network as its sharded kernel's sim.Barrier.
type barrier Network

// ShardDone samples shard s's routers when the run is measuring: each
// router's own table, and the shard's sums into its account. The clock is
// the one sampleUtilization reads after the step; nothing later in the
// step moves a router's occupancy.
func (b *barrier) ShardDone(s int) {
	n := (*Network)(b)
	if !n.measuring {
		return
	}
	lo, hi := 0, n.half
	if s == 1 {
		lo, hi = n.half, len(n.routers)
	}
	n.acct[s].occ = n.sampleRouters(lo, hi, n.kernel.Cycle()+1)
}

// Commit puts what the cut channels' producers pushed this step on their
// wires.
func (b *barrier) Commit() {
	for i := range b.outboxes {
		b.outboxes[i].Commit()
	}
}

// shardStep decides whether the next step may tick two shards, and
// latches what such a step reads of the run-wide counts. A PE reads two
// counts mid-step: recordDelivery the delivered count at the warm-up
// boundary, generate the injected count at InjectLimit. A shard sees only
// its own account, so a step that could cross either limit — the count
// is below it but within one per node of it — runs as one shard; in any
// other step the limit reads the same at every point of the step.
func (n *Network) shardStep() bool {
	nodes := uint64(n.topo.Nodes())
	near := func(count, limit uint64) bool { return count < limit && count+nodes >= limit }
	injected := n.injected()
	n.closed = n.cfg.InjectLimit != 0 && injected >= n.cfg.InjectLimit
	return !near(n.delivered(), n.cfg.WarmupMessages) && !near(injected, n.cfg.InjectLimit)
}

// injectionClosed reports whether InjectLimit messages have been
// generated; in a sharded step, as it stood at the step's start.
func (n *Network) injectionClosed() bool {
	switch {
	case n.cfg.InjectLimit == 0:
		return false
	case n.sharded:
		return n.closed
	}
	return n.injected() >= n.cfg.InjectLimit
}

func (n *Network) injected() uint64  { return n.acct[0].injected + n.acct[1].injected }
func (n *Network) delivered() uint64 { return n.acct[0].delivered + n.acct[1].delivered }
func (n *Network) lastEject() uint64 { return max(n.acct[0].lastEject, n.acct[1].lastEject) }
func (n *Network) events() stats.Events {
	return n.acct[0].events.Add(n.acct[1].events)
}

// cutNodes returns the first node of shard 1 for a mesh of nodes nodes, or
// nodes when it does not split.
func cutNodes(nodes int) int {
	if b := sim.ShardBoundary(2 * nodes); b != 0 {
		return b / 2
	}
	return nodes
}
