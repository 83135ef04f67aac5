package network

import (
	"testing"

	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/traffic"
)

// smallConfig is a quick 4x4 run for unit-level integration tests.
func smallConfig() Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 200
	cfg.TotalMessages = 1_000
	cfg.MaxCycles = 500_000
	return cfg
}

func TestFaultFreeDelivery(t *testing.T) {
	cfg := smallConfig()
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatal("fault-free network stalled")
	}
	if res.Delivered < cfg.TotalMessages {
		t.Fatalf("delivered %d, want >= %d", res.Delivered, cfg.TotalMessages)
	}
	if res.CorruptedPackets != 0 || res.LostPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("fault-free run saw corruption: %+v", res)
	}
	if res.WormholeViolations != 0 || res.StrayFlits != 0 {
		t.Fatalf("fault-free run saw wormhole violations/strays: %d/%d", res.WormholeViolations, res.StrayFlits)
	}
	if res.TotalEvents.Retransmitted != 0 || res.TotalEvents.NACKs != 0 {
		t.Fatalf("fault-free run retransmitted: %d NACKs %d", res.TotalEvents.Retransmitted, res.TotalEvents.NACKs)
	}
	// 4x4 mesh, 3-stage pipeline: zero-load header latency ~ (avg 2.7 hops
	// + ejection/injection) * 3 + serialization 3. Anything wildly off
	// means the pipeline timing broke.
	if res.AvgLatency < 8 || res.AvgLatency > 60 {
		t.Fatalf("avg latency %.1f implausible for light load on 4x4", res.AvgLatency)
	}
}

func TestZeroLoadLatencyMatchesPipelineDepth(t *testing.T) {
	// At near-zero load, per-hop header latency is depth cycles (router
	// stages folded with single-cycle link), so average latency must rise
	// monotonically with pipeline depth.
	var prev float64
	for depth := 1; depth <= 4; depth++ {
		cfg := smallConfig()
		cfg.PipelineDepth = depth
		cfg.InjectionRate = 0.02
		cfg.WarmupMessages = 100
		cfg.TotalMessages = 600
		res := New(cfg).Run()
		if res.Stalled || res.Delivered < cfg.TotalMessages {
			t.Fatalf("depth %d: run incomplete: %+v", depth, res)
		}
		if res.AvgLatency <= prev {
			t.Fatalf("depth %d latency %.2f not greater than depth %d latency %.2f",
				depth, res.AvgLatency, depth-1, prev)
		}
		prev = res.AvgLatency
	}
}

func TestDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalMessages = 500
	cfg.WarmupMessages = 100
	cfg.Faults.Link = 0.01
	a := New(cfg).Run()
	b := New(cfg).Run()
	if a.AvgLatency != b.AvgLatency || a.Cycles != b.Cycles || a.TotalEvents != b.TotalEvents {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
	cfg.Seed = 99
	c := New(cfg).Run()
	if a.Cycles == c.Cycles && a.AvgLatency == c.AvgLatency {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestHBHUnderLinkErrors(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.Link = 0.05
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatal("HBH network stalled under 5% link errors")
	}
	if res.Delivered < cfg.TotalMessages {
		t.Fatalf("delivered %d, want >= %d", res.Delivered, cfg.TotalMessages)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("HBH delivered corrupt packets: %d (anomalies %d)", res.CorruptedPackets, res.SinkAnomalies)
	}
	if res.TotalEvents.ECCCorrections == 0 {
		t.Fatal("no single-bit corrections recorded at 5% error rate")
	}
	if res.TotalEvents.Retransmitted == 0 {
		t.Fatal("no retransmissions recorded at 5% error rate")
	}
}

func TestAdaptiveRoutingDelivers(t *testing.T) {
	cfg := smallConfig()
	cfg.Routing = routing.MinimalAdaptive
	cfg.Cthres = 24
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatalf("adaptive run stalled (recoveries=%d probes=%d)", res.Recoveries, res.ProbesSent)
	}
	if res.Delivered < cfg.TotalMessages {
		t.Fatalf("delivered %d, want >= %d", res.Delivered, cfg.TotalMessages)
	}
}

func TestTrafficPatternsDeliver(t *testing.T) {
	for _, p := range []traffic.Pattern{traffic.UniformRandom, traffic.BitComplement, traffic.Tornado, traffic.Transpose, traffic.Shuffle, traffic.Hotspot} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Pattern = p
			cfg.InjectionRate = 0.1
			cfg.WarmupMessages = 100
			cfg.TotalMessages = 500
			res := New(cfg).Run()
			if res.Stalled || res.Delivered < cfg.TotalMessages {
				t.Fatalf("%v: delivered %d/%d stalled=%v", p, res.Delivered, cfg.TotalMessages, res.Stalled)
			}
		})
	}
}

func TestE2EAndFECDeliverUnderErrors(t *testing.T) {
	for _, prot := range []link.Protection{link.E2E, link.FEC} {
		prot := prot
		t.Run(prot.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Protection = prot
			cfg.Faults.Link = 0.01
			cfg.InjectionRate = 0.15
			cfg.WarmupMessages = 100
			cfg.TotalMessages = 600
			res := New(cfg).Run()
			if res.Stalled {
				t.Fatalf("%v stalled", prot)
			}
			if res.Delivered < cfg.TotalMessages {
				t.Fatalf("%v delivered %d/%d", prot, res.Delivered, cfg.TotalMessages)
			}
		})
	}
}

func TestProtectionSchemeLatencyOrdering(t *testing.T) {
	// Fig. 5's central claim: at a high error rate, HBH << FEC << E2E in
	// average latency.
	lat := map[link.Protection]float64{}
	for _, prot := range []link.Protection{link.HBH, link.FEC, link.E2E} {
		cfg := smallConfig()
		cfg.Protection = prot
		cfg.Faults.Link = 0.05
		cfg.InjectionRate = 0.15
		cfg.WarmupMessages = 100
		cfg.TotalMessages = 800
		res := New(cfg).Run()
		if res.Delivered < cfg.TotalMessages/2 {
			t.Fatalf("%v delivered only %d", prot, res.Delivered)
		}
		lat[prot] = res.AvgLatency
	}
	if !(lat[link.HBH] < lat[link.FEC] && lat[link.FEC] < lat[link.E2E]) {
		t.Fatalf("latency ordering violated: HBH=%.1f FEC=%.1f E2E=%.1f", lat[link.HBH], lat[link.FEC], lat[link.E2E])
	}
}

// RouterTxUtil breaks TxBufUtil down per router once the measurement
// window opens, and stays nil for a run that ends inside its warm-up.
func TestRouterTxUtilOnlyInMeasuredRuns(t *testing.T) {
	cfg := smallConfig()
	res := New(cfg).Run()
	if len(res.RouterTxUtil) != cfg.Width*cfg.Height {
		t.Fatalf("measured run: %d per-router utilizations, want %d", len(res.RouterTxUtil), cfg.Width*cfg.Height)
	}
	var sum float64
	for _, u := range res.RouterTxUtil {
		sum += u
	}
	if sum <= 0 || res.TxBufUtil <= 0 {
		t.Fatalf("measured run: per-router sum %g, TxBufUtil %g", sum, res.TxBufUtil)
	}

	cfg.MaxCycles = 20 // far short of the 200 warm-up deliveries
	if res := New(cfg).Run(); res.RouterTxUtil != nil || res.Delivered >= cfg.WarmupMessages {
		t.Fatalf("warm-up-only run: RouterTxUtil %v after %d deliveries", res.RouterTxUtil, res.Delivered)
	}
}
