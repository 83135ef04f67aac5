package network

import (
	"fmt"
	"testing"

	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/traffic"
)

// Conservation: with a bounded injected population and a fault-free
// network, every injected packet must eventually eject — nothing is lost
// and nothing is duplicated.
func TestPacketConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupMessages = 0
	cfg.InjectLimit = 2_000
	cfg.TotalMessages = 2_000
	// A private store, never given back: the routers stay readable after Run.
	n := NewIn(new(sim.Slabs), cfg)
	res := n.Run()
	if res.Stalled {
		t.Fatal("stalled")
	}
	if n.injected() != 2_000 {
		t.Fatalf("injected %d, want exactly 2000", n.injected())
	}
	if res.Delivered != 2_000 {
		t.Fatalf("delivered %d of 2000 injected", res.Delivered)
	}
	// With everything delivered, the network must be fully drained.
	for i, r := range n.routers {
		if occ, _ := r.BufferOccupancy(); occ != 0 {
			t.Fatalf("router %d still holds %d flits after full delivery", i, occ)
		}
	}
}

// Conservation must also hold under link errors: retransmission may
// repeat flits on wires, but every packet still ejects exactly once.
func TestPacketConservationUnderErrors(t *testing.T) {
	cfg := smallConfig()
	cfg.WarmupMessages = 0
	cfg.InjectLimit = 2_000
	cfg.TotalMessages = 2_000
	cfg.Faults.Link = 0.02
	res := New(cfg).Run()
	if res.Stalled || res.Delivered != 2_000 {
		t.Fatalf("delivered %d of 2000 injected under errors (stalled=%v)", res.Delivered, res.Stalled)
	}
	if res.CorruptedPackets != 0 {
		t.Fatalf("%d corrupt deliveries", res.CorruptedPackets)
	}
}

// Soak: random combinations of topology size, routing, protection, VC
// count, fault rates and seeds — with all protection on, every
// configuration must deliver intact traffic.
func TestSoakRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	routings := []routing.Algorithm{routing.XY, routing.MinimalAdaptive, routing.WestFirst, routing.OddEven}
	protections := []link.Protection{link.HBH, link.FEC, link.E2E}
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.Transpose, traffic.Hotspot}
	for i := 0; i < 18; i++ {
		i := i
		t.Run(fmt.Sprintf("combo%02d", i), func(t *testing.T) {
			cfg := NewConfig()
			cfg.Width = 3 + i%3
			cfg.Height = 3 + (i/2)%3
			cfg.VCs = 2 + i%2
			cfg.BufDepth = 4 + 2*(i%2)
			cfg.PipelineDepth = 1 + i%4
			cfg.Routing = routings[i%len(routings)]
			cfg.Protection = protections[i%len(protections)]
			cfg.Pattern = patterns[i%len(patterns)]
			cfg.InjectionRate = 0.08 + 0.04*float64(i%3)
			cfg.Faults.Link = []float64{0, 1e-3, 1e-2}[i%3]
			if cfg.Protection == link.HBH {
				// Logic faults only with full protection; the E2E/FEC
				// baselines do not carry the AC in the paper either.
				cfg.Faults.RT = 5e-4
				cfg.Faults.SA = 5e-4
				cfg.Faults.VA = 5e-4
			}
			cfg.Seed = uint64(1000 + i)
			cfg.WarmupMessages = 100
			cfg.TotalMessages = 800
			cfg.MaxCycles = 400_000
			// A private store, never given back: the routers stay readable
			// after Run.
			n := NewIn(new(sim.Slabs), cfg)
			res := n.Run()
			if res.Stalled || res.Delivered < cfg.TotalMessages {
				t.Fatalf("delivered %d/%d (stalled=%v): %+v", res.Delivered, cfg.TotalMessages, res.Stalled, cfg)
			}
			// Probe memory stays bounded: dedup by (origin, port, VC) caps
			// it at the keyspace, and the age-out prune — which must run in
			// recovery mode too — keeps the live population far below that.
			probeCap := n.Topology().Nodes() * int(topology.NumPorts) * cfg.VCs
			for id, r := range n.Routers() {
				if l := r.ProbeSeenLen(); l > probeCap {
					t.Fatalf("router %d probe memory grew to %d entries (keyspace %d)", id, l, probeCap)
				}
			}
			if res.SinkAnomalies != 0 {
				t.Fatalf("sink anomalies escaped protection: %d (cfg %+v)", res.SinkAnomalies, cfg)
			}
			// Destination-detected corruption is the E2E/FEC recovery
			// mechanism at work; only HBH promises corruption-free hops.
			if cfg.Protection == link.HBH && res.CorruptedPackets != 0 {
				t.Fatalf("HBH delivered corruption: %d (cfg %+v)", res.CorruptedPackets, cfg)
			}
			// E2E/FEC can genuinely lose packets when the retransmission
			// request itself is corrupted in transit — exactly the weakness
			// the paper calls out for end-to-end schemes (§3). Only HBH
			// promises zero loss.
			if cfg.Protection == link.HBH && res.LostPackets != 0 {
				t.Fatalf("HBH lost packets: %d (cfg %+v)", res.LostPackets, cfg)
			}
			if res.LostPackets > res.Delivered/20 {
				t.Fatalf("excessive loss %d for %d delivered (cfg %+v)", res.LostPackets, res.Delivered, cfg)
			}
		})
	}
}

// Multi-seed determinism and sanity of the headline experiment point.
func TestSeedStability(t *testing.T) {
	var base float64
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		res := New(cfg).Run()
		if res.Stalled {
			t.Fatalf("seed %d stalled", seed)
		}
		if seed == 1 {
			base = res.AvgLatency
			continue
		}
		// Different seeds, same workload: latency must agree within a few
		// percent (statistical noise only).
		if diff := res.AvgLatency/base - 1; diff > 0.1 || diff < -0.1 {
			t.Fatalf("seed %d latency %.2f deviates >10%% from seed 1's %.2f", seed, res.AvgLatency, base)
		}
	}
}

// All fault classes at once, at realistic rates: the combined protection
// stack holds.
func TestAllFaultsSimultaneously(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.Link = 5e-3
	cfg.Faults.RT = 5e-4
	cfg.Faults.VA = 5e-4
	cfg.Faults.SA = 5e-4
	cfg.Faults.Handshake = 0.05
	cfg.TMREnabled = true
	res := New(cfg).Run()
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("run incomplete: %v", res)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 || res.StrayFlits != 0 {
		t.Fatalf("combined faults leaked corruption: %+v", res)
	}
}
