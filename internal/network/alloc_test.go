package network

import (
	"runtime"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
)

// maxNewAllocs bounds what New may allocate at any mesh size: every
// component kind is one slab per network, so the count has no per-node or
// per-channel term.
const maxNewAllocs = 64

// A cold build, in an empty store, costs a constant number of
// allocations: the same bound holds from 4x4 to 16x16, and under the
// hard-fault regime (fault-adaptive routing, a mortality timeline, link
// faults). The store is made here rather than taken from sim's free list,
// which may hold a store an earlier test's Run gave back.
func TestNewAllocsSizeIndependent(t *testing.T) {
	mort, err := fault.ParseMortality("link:8E@300,router:21@700")
	if err != nil {
		t.Fatal(err)
	}
	plain := func(w, h int) Config {
		cfg := NewConfig()
		cfg.Width, cfg.Height = w, h
		return cfg
	}
	degraded := plain(6, 6)
	degraded.Routing = routing.FaultAdaptive
	degraded.Protection = link.FEC
	degraded.Faults.Link = 1e-2
	degraded.Faults.Mortality = mort
	cases := []struct {
		name string
		cfg  Config
	}{
		{"4x4", plain(4, 4)},
		{"8x8", plain(8, 8)},
		{"16x16", plain(16, 16)},
		{"6x6 mortality", degraded},
	}
	for _, c := range cases {
		n := testing.AllocsPerRun(3, func() { NewIn(new(sim.Slabs), c.cfg) })
		t.Logf("%s: %v allocations", c.name, n)
		if n > maxNewAllocs {
			t.Errorf("cold New(%s) = %v allocations, want <= %d", c.name, n, maxNewAllocs)
		}
	}
}

// The windows New carves for neighbouring components must not overlap:
// with three neighbouring PEs' transmitter shifters, staging buffers and
// sinks filled to capacity, each holds exactly its own flits, and staging a packet longer than the
// staging window moves that VC to fresh storage instead of writing into
// the next window. (The routers' VC buffers are held to the same in
// package router, TestRouterArenaWindows.)
func TestNewArenaWindows(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	n := New(cfg)
	pes := n.pes[4:7]
	want := make([][]flit.PacketID, len(pes)*cfg.VCs) // per (PE, VC): the staged packet and its length
	stage := func(i, v, size int) {
		id := flit.PacketID(100*i + 10*v + size)
		pes[i].queuePush(flit.Packet{ID: id, Src: pes[i].id, Dst: 0, Size: size})
		pes[i].assign()
		want[i*cfg.VCs+v] = []flit.PacketID{id, flit.PacketID(size)}
	}
	for i := range pes {
		for v := 0; v < cfg.VCs; v++ {
			stage(i, v, cfg.PacketSize)
		}
	}
	staged := func(when string) {
		t.Helper()
		for i, p := range pes {
			for v, fs := range p.vcFlits {
				w := want[i*cfg.VCs+v]
				if len(fs) != int(w[1]) {
					t.Fatalf("%s: PE %d VC %d stages %d flits, want %d", when, p.id, v, len(fs), w[1])
				}
				for _, f := range fs {
					if f.PID != w[0] {
						t.Fatalf("%s: PE %d VC %d stages pid %d, want %d: a neighbour's window overlaps", when, p.id, v, f.PID, w[0])
					}
				}
			}
		}
	}
	staged("staged")

	for i, p := range pes {
		for v := 0; v < cfg.VCs; v++ {
			for s := 0; s < link.NACKWindow; s++ {
				p.tx.Send(flit.Flit{PID: flit.PacketID(900 + 10*i + v), Seq: uint8(s), Type: flit.Body}, v, 0)
			}
		}
	}
	staged("after filling the shifters")

	// A longer packet outgrows the middle PE's VC 0 window.
	pes[1].vcFlits[0] = nil
	stage(1, 0, cfg.PacketSize+3)
	staged("after staging a longer packet")

	// Sinks: every PE opens a packet on every sink VC.
	for i, p := range pes {
		for v := range p.sink {
			head := flit.Packet{ID: flit.PacketID(500 + 10*i + v), Src: 0, Dst: p.id, Size: 2}.Flits()[0]
			p.consume(0, v, &head)
		}
	}
	for i, p := range pes {
		for v, sk := range p.sink {
			if !sk.live || sk.pid != flit.PacketID(500+10*i+v) {
				t.Fatalf("PE %d sink VC %d holds %+v: a neighbour's window overlaps", p.id, v, sk)
			}
		}
	}

	for i, p := range pes {
		for v := 0; v < cfg.VCs; v++ {
			got := p.tx.Recall(nil, v)
			if len(got) != link.NACKWindow {
				t.Fatalf("PE %d VC %d recalled %d flits, want %d", p.id, v, len(got), link.NACKWindow)
			}
			for s, f := range got {
				if f.PID != flit.PacketID(900+10*i+v) || int(f.Seq) != s {
					t.Fatalf("PE %d VC %d slot %d holds %v: a neighbour's shifter window overlaps", p.id, v, s, f)
				}
			}
		}
	}
}

// runCost returns the allocations and bytes Run makes on n, its build's
// own excluded. The counts are the process's, so a collection first
// keeps the runtime's own set-up of its first cycle out of them.
func runCost(n *Network) (allocs, bytes uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n.Run()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// A run's memory is set by its network, not its length, whether clean,
// under heavy transient faults, or under end-to-end retention with links
// and a router dying mid-run. Storage grows only while a high-water mark
// rises (the latency table, queues, retention, kill records), and it
// grows in the build's store: a store that has held a short run grows by
// at most 5% to hold one four times as long, and in a store that has held
// both, the long run allocates at most 5% more than the short one, in
// count and in bytes, plus what the runtime's type-assertion cache may
// take (one allocation, see maxRunAllocs).
func TestRunMemoryIndependentOfLength(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 28 000-message simulations")
	}
	mort, err := fault.ParseMortality("link:8E@300,router:21@700")
	if err != nil {
		t.Fatal(err)
	}
	// The runtime allocates when it starts an OS thread, which it does now
	// and then for a second P; one P keeps that out of the counts. A short
	// run first takes whatever the process initialises once, so it is
	// charged to neither side of a comparison.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	warm := NewConfig()
	warm.Width, warm.Height = 4, 4
	warm.WarmupMessages, warm.TotalMessages = 10, 100
	runCost(New(warm))
	clean := NewConfig()
	clean.WarmupMessages = 1000
	clean.Faults.Link = 1e-5
	heavy := clean
	heavy.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
	degraded := NewConfig()
	degraded.Width, degraded.Height = 6, 6
	degraded.WarmupMessages = 1000
	degraded.InjectionRate = 0.15
	degraded.Routing = routing.FaultAdaptive
	degraded.Protection = link.FEC
	degraded.Faults.Link = 1e-5
	degraded.Faults.Mortality = mort
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"hbh_clean", clean},
		{"faults_heavy", heavy},
		{"fec_mortality_6x6", degraded},
	} {
		t.Run(c.name, func(t *testing.T) {
			short, long := c.cfg, c.cfg
			short.TotalMessages, long.TotalMessages = 7000, 28000
			// The config's own store: in one another config grew, the
			// release rule (Slabs.Begin) would still be settling.
			s := new(sim.Slabs)
			runCost(NewIn(s, short))
			held := s.Bytes()
			runCost(NewIn(s, long))
			grown := s.Bytes()
			sa, sb := runCost(NewIn(s, short))
			la, lb := runCost(NewIn(s, long))
			t.Logf("store %d -> %d bytes; in it %d -> %d allocations, %d -> %d bytes", held, grown, sa, la, sb, lb)
			if grown > held+held/20 {
				t.Errorf("the store grows from %d to %d bytes for a 4x longer run: more than 5%%", held, grown)
			}
			if la > sa+sa/20+1 {
				t.Errorf("a 4x longer run makes %d allocations against %d: more than 5%% more", la, sa)
			}
			if lb > sb+sb/20+512 {
				t.Errorf("a 4x longer run allocates %d bytes against %d: more than 5%% more", lb, sb)
			}
		})
	}
}

// maxRunAllocs bounds what Run may allocate in a store an earlier run of
// the same config grew: the three parts of its Results that outlive the
// store (the counter snapshot, the router means, the latency histogram),
// plus one the runtime may make at any moment. A type assertion's cache
// grows on one of its misses in ~1024, not on the first, so it can land
// in any measurement until it holds every actor type.
const maxRunAllocs = 4

// maxRerunAllocs bounds a whole lone run in such a store, New and Run:
// Run's three, the objects New keeps off the store (the network struct
// and the three of its topology, valid after Run), and the runtime's one.
// scripts/bench.sh holds BenchmarkRunReusedFaults to it.
const maxRerunAllocs = 8

// A run in a reused store allocates only in New: every buffer a run grows
// (injection queues, replay queues, NACK rings, delivery lists, pending
// windows, probe memory, the latency table, the mortality controller's
// kill records and verdict set) comes from the store, so the second Run
// of a config, built in the store the first used, makes at most
// maxRunAllocs allocations, and a build and run there together at most
// maxRerunAllocs. Clean, under heavy transient faults, at low load on a
// 16x16 mesh, and under FEC with links and a router dying.
func TestRunAllocatesOnlyInNew(t *testing.T) {
	mort, err := fault.ParseMortality("link:8E@300,router:21@700")
	if err != nil {
		t.Fatal(err)
	}
	// One P: no OS thread starts mid-run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	clean := NewConfig()
	clean.WarmupMessages, clean.TotalMessages = 1000, 7000
	clean.Faults.Link = 1e-5
	heavy := clean
	heavy.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
	sparse := clean
	sparse.Width, sparse.Height = 16, 16
	sparse.InjectionRate = 0.02
	sparse.WarmupMessages, sparse.TotalMessages = 500, 2500
	degraded := NewConfig()
	degraded.Width, degraded.Height = 6, 6
	degraded.WarmupMessages, degraded.TotalMessages = 1000, 7000
	degraded.InjectionRate = 0.15
	degraded.Routing = routing.FaultAdaptive
	degraded.Protection = link.FEC
	degraded.Faults.Link = 1e-5
	degraded.Faults.Mortality = mort
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"hbh_clean", clean},
		{"faults_heavy", heavy},
		{"sparse_16x16", sparse},
		{"fec_mortality_6x6", degraded},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The config's own store, as in TestRunMemoryIndependentOfLength.
			s := new(sim.Slabs)
			first, _ := runCost(NewIn(s, c.cfg))
			again, bytes := runCost(NewIn(s, c.cfg))
			whole := testing.AllocsPerRun(1, func() { NewIn(s, c.cfg).Run() })
			t.Logf("%d allocations in the first run, %d (%d bytes) in the second, %v with its build", first, again, bytes, whole)
			if again > maxRunAllocs {
				t.Errorf("a run in a reused store makes %d allocations, want <= %d", again, maxRunAllocs)
			}
			if whole > maxRerunAllocs {
				t.Errorf("a build and run in a reused store make %v allocations, want <= %d", whole, maxRerunAllocs)
			}
		})
	}
}
