package network

import (
	"io"
	"runtime"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/sim"
	"ftnoc/internal/trace"
)

// benchConfig is the steady-state benchmark workload: a fault-free 4x4
// mesh at the paper's 0.25 operating point, trace bus off. Its 500
// warm-up messages end early in every benchmark's own warm-up, so the
// measured cycles record latencies too: recording costs no allocation
// once the latency table covers the run's latencies.
func benchConfig() Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.25
	cfg.WarmupMessages = 500
	cfg.TotalMessages = 1 << 62
	cfg.MaxCycles = 1 << 62
	return cfg
}

// BenchmarkKernelSteady is the CI-guarded hot path: one simulated cycle
// of the whole network in steady state. After the 2000-cycle warm-up
// all scratch buffers, queues and the wake heap have reached their
// steady-state sizes, so the per-cycle step must allocate nothing — the
// CI bench-smoke job fails the build if allocs/op is ever > 0.
func BenchmarkKernelSteady(b *testing.B) {
	n := New(benchConfig())
	for i := 0; i < 2000; i++ {
		n.kernel.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSteadyFaults is the steady state of the error path: the
// benchmark network under the faults_heavy workload's rates, so link-error
// NACKs replay every cycle, routing upsets recall headers and re-route
// them, and allocator upsets are caught. After the warm-up the replay
// queues, pending queues and NACK wires have reached their high-water
// marks, and the step must allocate nothing (scripts/bench.sh --smoke).
func BenchmarkKernelSteadyFaults(b *testing.B) {
	cfg := benchConfig()
	cfg.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
	n := New(cfg)
	for i := 0; i < 2000; i++ {
		n.kernel.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSteadyShards is the steady state ticked as two shards:
// the benchmark workload on the 8x8 mesh, which splits, with the kernel's
// helper and the cut channels' outboxes in use on every step. The helper
// and its buffers outlive the network and the outboxes come from its
// construction, so the step must allocate nothing (scripts/bench.sh
// --smoke). It runs on two Ps at least, so that the kernel can claim two
// cores.
func BenchmarkKernelSteadyShards(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := benchConfig()
	cfg.Width, cfg.Height = 8, 8
	n := New(cfg)
	if !n.startShards() {
		b.Fatal("the 8x8 benchmark network does not shard")
	}
	defer n.stopShards()
	for i := 0; i < 2000; i++ {
		n.step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.step()
	}
	b.StopTimer()
	if n.KernelStats().Sharded == 0 {
		b.Fatal("no step ticked two shards")
	}
	reportKernel(b, n)
}

// BenchmarkKernelSteadyMetrics proves the zero-cost-when-unscraped
// observability contract on the hot path: a metrics registry is
// attached (every router registers its three gauges at construction)
// but the sampling interval never fires inside the measurement window,
// and the steady-state tick must still allocate nothing — the off-cycle
// Tick is one modulo and a return.
func BenchmarkKernelSteadyMetrics(b *testing.B) {
	cfg := benchConfig()
	m := trace.NewMetrics(io.Discard, 1<<62)
	cfg.Metrics = m
	n := New(cfg)
	for i := 0; i < 2000; i++ {
		n.kernel.Step()
		m.Tick(n.kernel.Cycle())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
		m.Tick(n.kernel.Cycle())
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSteadyNaive is the same workload with nobody opted into
// sleeping (the tests' oracle); both run the same routers, so the ratio to
// BenchmarkKernelSteady is what sleeping is worth here.
func BenchmarkKernelSteadyNaive(b *testing.B) {
	n := naive.build(benchConfig())
	for i := 0; i < 2000; i++ {
		n.kernel.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSteadyEvent16 is the steady workload on a 16x16 mesh:
// 512 actors per cycle at the paper's 0.25 operating point.
func BenchmarkKernelSteadyEvent16(b *testing.B) {
	cfg := benchConfig()
	cfg.Width, cfg.Height = 16, 16
	n := New(cfg)
	for i := 0; i < 6000; i++ {
		n.kernel.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSteadyLowLoad is the quiescence showcase: at 0.05
// injection most actors are idle most cycles, and the kernel skips them
// outright instead of ticking them to prove they had nothing to do.
func BenchmarkKernelSteadyLowLoad(b *testing.B) {
	cfg := benchConfig()
	cfg.InjectionRate = 0.05
	n := New(cfg)
	for i := 0; i < 2000; i++ {
		n.kernel.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSparse16x16 is the low-load steady state the 4x4
// benchmarks never reach: a 16x16 mesh at 0.02 injection under the event
// kernel, where three ticks in four are skipped and routers sleep while
// credits trickle back to them. What a cycle costs here is the sweep
// overhead the port masks remove — polling idle ports, sampling idle
// shifters — so it is the guard for "a tick costs what is in flight",
// and like the other steady benchmarks it must allocate nothing per
// cycle (scripts/bench.sh --smoke fails the build otherwise).
func BenchmarkKernelSparse16x16(b *testing.B) {
	cfg := benchConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.InjectionRate = 0.02
	n := New(cfg)
	for i := 0; i < 6000; i++ {
		n.kernel.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.kernel.Step()
	}
	b.StopTimer()
	reportKernel(b, n)
}

// BenchmarkKernelSparse16x16Shards is BenchmarkKernelSparse16x16 ticked
// as two shards, each step followed by the run loop's occupancy sample,
// with the measurement window open: the shards sample their own routers
// (barrier.ShardDone) and the caller adds their sums. The step must
// allocate nothing (scripts/bench.sh --smoke). It runs on two Ps at
// least, so that the kernel can claim two cores.
func BenchmarkKernelSparse16x16Shards(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := benchConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.InjectionRate = 0.02
	n := New(cfg)
	if !n.startShards() {
		b.Fatal("the 16x16 benchmark network does not shard")
	}
	defer n.stopShards()
	step := func() {
		n.step()
		if n.measuring {
			n.sampleUtilization()
		}
	}
	for i := 0; i < 6000; i++ {
		step()
	}
	if !n.measuring {
		b.Fatal("the measurement window is still closed")
	}
	sharded := n.KernelStats().Sharded
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	if n.KernelStats().Sharded == sharded {
		b.Fatal("no measured step ticked two shards")
	}
	reportKernel(b, n)
}

// reportKernel attaches the skipped-actor-tick ratio to the benchmark
// output, and cycles/sec as the human-facing inverse of ns/op.
func reportKernel(b *testing.B, n *Network) {
	ks := n.KernelStats()
	if total := ks.Ticked + ks.Skipped; total > 0 {
		b.ReportMetric(float64(ks.Skipped)/float64(total), "skipped-ratio")
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "cycles/sec")
	}
}

// BenchmarkRunQuick benchmarks a complete short simulation including
// construction and teardown — the unit of work the figure harnesses and
// campaign engine repeat thousands of times.
func BenchmarkRunQuick(b *testing.B) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.05
	cfg.WarmupMessages = 100
	cfg.TotalMessages = 500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := New(cfg).Run()
		if res.Stalled {
			b.Fatal("benchmark run stalled")
		}
	}
}

// BenchmarkNew16x16 times construction alone on sparse_16x16's mesh: every
// component kind is one slab per network, so allocs/op is a constant
// (TestNewAllocsSizeIndependent bounds it) and what is left is the cost
// of filling the slabs.
func BenchmarkNew16x16(b *testing.B) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.InjectionRate = 0.02
	cfg.Faults.Link = 1e-5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtNet = New(cfg)
	}
}

// BenchmarkNewReused6x6 times construction in a store on one of
// campaign_grid's points, rebuilt in the slabs its previous build left —
// what every New after a process's first costs. B/op is
// what the store does not cover; scripts/bench.sh holds it under 2% of a
// fresh build's.
func BenchmarkNewReused6x6(b *testing.B) {
	cfg := gridPointConfig()
	var s sim.Slabs
	NewIn(&s, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builtNet = NewIn(&s, cfg)
	}
}

// BenchmarkNewFresh6x6 is BenchmarkNewReused6x6's point built in an empty
// store: the bytes the store saves are the difference.
func BenchmarkNewFresh6x6(b *testing.B) {
	cfg := gridPointConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtNet = NewIn(new(sim.Slabs), cfg)
	}
}

// BenchmarkRunReusedFaults times a whole faults_heavy run, New and Run,
// in the store the previous run gave back: what every lone run after a
// process's first costs. allocs/op is what the store does not cover, the
// network's own few objects and its Results; scripts/bench.sh holds it
// at TestRunAllocatesOnlyInNew's bound, maxRerunAllocs.
func BenchmarkRunReusedFaults(b *testing.B) {
	cfg := NewConfig()
	cfg.WarmupMessages, cfg.TotalMessages = 1000, 7000
	cfg.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
	New(cfg).Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(cfg).Run()
	}
}

// builtNet keeps the construction benchmarks' results alive.
var builtNet *Network
