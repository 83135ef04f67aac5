package main

import (
	"io"
	"math"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/ecc"
	"ftnoc/internal/fault"
	"ftnoc/internal/faultmap"
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/obs"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
	"ftnoc/internal/traffic"
)

// Unit costs: each layer's public functions timed in isolation, outside
// any simulation. They are the "what one call costs" half of
// bench.reconcile_ratio and let a later change say which primitive it
// made cheaper. They do not depend on the workload.

// unitTimer sets how long each unit cost is measured for.
type unitTimer struct {
	batches int
	batch   time.Duration
}

// sink keeps the compiler from discarding a measured call's result.
var sink uint64

// unitNs times fn, which performs and returns a number of operations,
// and reports ns per operation from the fastest of a few short batches
// (the host's noise only ever slows a batch down).
func (t unitTimer) ns(fn func() int) float64 {
	best := math.Inf(1)
	for b := 0; b < t.batches; b++ {
		ops := 0
		t0 := time.Now()
		for time.Since(t0) < t.batch {
			ops += fn()
		}
		best = min(best, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return best
}

// every runs fn n times per timed call, so the clock reads amortise.
func every(n int, fn func(i int)) func() int {
	return func() int {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return n
	}
}

// corruptEvery double-flips every nth flit it sees: an uncorrectable
// error the HBH receiver must NACK.
type corruptEvery struct{ n, seen int }

func (c *corruptEvery) Corrupt(f *flit.Flit) fault.LinkOutcome {
	c.seen++
	if c.seen%c.n != 0 {
		return fault.NoError
	}
	f.Word = ecc.FlipDataBit(ecc.FlipDataBit(f.Word, 5), 40)
	return fault.DoubleFlip
}

// hopNs streams four-flit packets over one HBH-protected link (a
// transmitter, its channel and a receiver that returns every credit at
// once) and reports ns per delivered flit and NACKs per delivered flit.
func (t unitTimer) hopNs(corr fault.Corruptor) (ns, nacksPerFlit float64) {
	var k sim.Kernel
	var ev stats.Events
	ctr := fault.NewCounters()
	ch := link.NewChannel(&k, corr, false, &ev, ctr)
	tx := link.NewTransmitter(ch, 3, 8, link.NACKWindow, &ev, ctr)
	rx := link.NewReceiver(ch, 3, link.HBH, &ev, ctr)
	packet := flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 4}.Flits()
	sent, accepted := 0, 0
	k.Register(sim.ActorFunc(func(c uint64) {
		tx.BeginCycle(c)
		tx.ExpireShifters(c)
		if tx.TickReplay(c) {
			return
		}
		if tx.Credits(0) > 0 {
			tx.Send(packet[sent%len(packet)], 0, c)
			sent++
		}
	}))
	k.Register(sim.ActorFunc(func(c uint64) {
		data, _ := rx.ReceiveAll(c)
		for _, f := range data {
			accepted++
			rx.ReturnCredit(int(f.VC))
		}
	}))
	ns = t.ns(func() int {
		before := accepted
		k.Run(512)
		return max(1, accepted-before)
	})
	return ns, float64(ctr.NACKs) / float64(max(1, accepted))
}

// unitCosts measures every *_ns / *_us per-layer metric.
func unitCosts(smoke bool) map[string]float64 {
	u := make(map[string]float64)
	t := unitTimer{batches: 5, batch: 12 * time.Millisecond}
	if smoke {
		t = unitTimer{batches: 1, batch: time.Millisecond}
	}

	word := uint64(0x9E3779B97F4A7C15)
	check := ecc.Encode(word)
	u["ecc.encode_ns"] = t.ns(every(4096, func(i int) { sink += uint64(ecc.Encode(word + uint64(i))) }))
	u["ecc.decode_clean_ns"] = t.ns(every(4096, func(i int) {
		d, _, _ := ecc.Decode(word, check)
		sink += d
	}))
	u["ecc.decode_correct_ns"] = t.ns(every(4096, func(i int) {
		d, _, _ := ecc.Decode(ecc.FlipDataBit(word, i), check)
		sink += d
	}))

	f := flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 4}.Flits()[1]
	clean := fault.NewLinkInjector(1e-5, fault.DefaultLinkDouble, sim.NewRNG(1))
	u["fault.corrupt_clean_ns"] = t.ns(every(4096, func(int) { g := f; sink += uint64(clean.Corrupt(&g)) }))
	heavy := fault.NewLinkInjector(1e-1, 0.5, sim.NewRNG(2))
	u["fault.corrupt_heavy_ns"] = t.ns(every(4096, func(int) { g := f; sink += uint64(heavy.Corrupt(&g)) }))
	logic := fault.NewLogicInjector(fault.VALogic, 1e-2, sim.NewRNG(3))
	u["fault.logic_upset_ns"] = t.ns(every(4096, func(int) {
		if logic.Upset() {
			sink++
		}
	}))

	mesh := topology.New(topology.Mesh, 8, 8)
	src := traffic.NewSource(0, mesh, traffic.UniformRandom, 0.25, 4, sim.NewRNG(4))
	u["traffic.source_tick_ns"] = t.ns(every(4096, func(int) {
		d, _ := src.Tick()
		sink += uint64(d)
	}))

	xy := routing.New(routing.XY, mesh)
	u["routing.route_xy_ns"] = t.ns(every(4096, func(i int) {
		sink += uint64(len(xy.Route(flit.NodeID(i%64), flit.NodeID((i*7+13)%64))))
	}))
	broken := topology.New(topology.Mesh, 6, 6)
	broken.FailLink(8, topology.East)
	updown := routing.NewFaultAdaptiveFunc(broken)
	u["routing.route_updown_ns"] = t.ns(every(4096, func(i int) {
		sink += uint64(len(updown.Route(flit.NodeID(i%36), flit.NodeID((i*7+13)%36))))
	}))
	u["routing.rebuild_us"] = t.ns(every(4, func(int) { updown.Rebuild() })) / 1e3

	local, gossip := faultmap.New(36), faultmap.New(36)
	gossip.MarkLinkDead(8, topology.East)
	gossip.MarkRouterDead(21)
	u["faultmap.merge_ns"] = t.ns(every(1024, func(int) {
		if local.MergeFrom(gossip) {
			sink++
		}
	}))
	var enc []byte
	u["faultmap.encode_ns"] = t.ns(every(1024, func(int) {
		enc = gossip.AppendEncode(enc[:0])
		sink += uint64(len(enc))
	}))

	idle := network.NewConfig()
	idle.InjectionRate = 0
	kern := network.New(idle).Kernel()
	u["sim.step_idle_ns"] = t.ns(every(1024, func(int) { kern.Step() }))
	var k sim.Kernel
	pipe := sim.NewPipe[uint64](&k, 1)
	u["sim.pipe_ns"] = t.ns(every(1024, func(i int) {
		pipe.Push(uint64(i))
		k.Step()
		v, _ := pipe.Pop()
		sink += v
	}))

	var ev stats.Events
	ch := link.NewChannel(&k, nil, false, &ev, fault.NewCounters())
	u["link.channel_roundtrip_ns"] = t.ns(every(1024, func(int) {
		ch.Send(f)
		k.Step()
		g, _ := ch.Recv()
		ch.SendCredit(g.VC)
		k.Step()
		sink += uint64(len(ch.RecvCredits()))
	}))
	rb := link.NewRetransBuffer(link.NACKWindow)
	cycle := uint64(0)
	u["link.retrans_capture_ns"] = t.ns(every(4096, func(int) {
		rb.Capture(f, cycle)
		cycle += link.NACKWindow
		sink += uint64(rb.Expire(cycle))
	}))
	hop, _ := t.hopNs(fault.NewLinkInjector(1e-5, fault.DefaultLinkDouble, sim.NewRNG(5)))
	hopNack, nacksPerFlit := t.hopNs(&corruptEvery{n: 10})
	u["link.hop_ns"], u["link.hop_nack_ns"] = hop, hopNack
	if nacksPerFlit > 0 {
		// Not a reported metric: what one NACK adds to a hop, the second
		// term of bench.reconcile_ratio.
		u["link.nack_extra_ns"] = (hopNack - hop) / nacksPerFlit
	}

	reg := obs.NewRegistry()
	reqs := reg.CounterVec("bench_requests_total", "Requests by route and status.", "route", "status")
	lat := reg.HistogramVec("bench_request_seconds", "Latency by route.", []float64{.001, .01, .1, 1, 10}, "route")
	for _, route := range []string{"submit", "status", "events", "stats", "metrics"} {
		reqs.With(route, "200").Add(3)
		reqs.With(route, "429").Inc()
		lat.With(route).Observe(0.02)
	}
	reg.Gauge("bench_queue_depth", "Queue depth.").Set(2)
	u["obs.write_text_us"] = t.ns(every(16, func(int) { _ = reg.WriteText(io.Discard) })) / 1e3

	if spec, err := campaign.ParseSpec(gridSpec(1, 0, 1)); err == nil {
		u["campaign.hash_us"] = t.ns(every(4, func(int) {
			h, _ := spec.CanonicalHash()
			sink += uint64(len(h))
		})) / 1e3
	}
	return u
}
