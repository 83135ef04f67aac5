package network

import (
	"fmt"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
)

// RT-logic faults under deterministic routing with the AC + VA-state +
// neighbor checks engaged (§4.2): every injected misdirection must be
// corrected, and traffic must stay intact.
func TestRTLogicFaultsCorrected(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.RT = 0.001
	res := New(cfg).Run()
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("run incomplete: %v", res)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 || res.StrayFlits != 0 {
		t.Fatalf("RT faults leaked corruption: %+v", res)
	}
	inj := res.Counters.Injected[fault.RTLogic]
	cor := res.Counters.Corrected[fault.RTLogic]
	if inj == 0 {
		t.Fatal("no RT faults injected at rate 1e-3")
	}
	if cor == 0 {
		t.Fatal("no RT faults corrected")
	}
	// Under XY every harmful misdirection is corrected; benign ones (the
	// random port happens to be the right one, ~1/5) need no correction.
	if cor < inj/2 {
		t.Fatalf("corrected %d of %d injected RT faults; protection leaky", cor, inj)
	}
}

// Under adaptive routing a misdirection to a legal port is undetectable
// but benign (§4.2): packets still arrive.
func TestRTLogicFaultsAdaptiveBenign(t *testing.T) {
	cfg := smallConfig()
	cfg.Routing = routing.MinimalAdaptive
	cfg.Faults.RT = 0.001
	res := New(cfg).Run()
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("run incomplete: %v", res)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("adaptive RT faults corrupted traffic: %+v", res)
	}
}

// SA-logic faults with the AC engaged (§4.3): corrupted grants are
// squashed, nothing corrupts, and the paper's Fig. 13a ordering holds —
// SA upsets outnumber both link errors and RT upsets at equal rates.
func TestSALogicFaultsCorrected(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.SA = 0.001
	res := New(cfg).Run()
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("run incomplete: %v", res)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 || res.StrayFlits != 0 {
		t.Fatalf("SA faults leaked corruption: %+v", res)
	}
	if res.Counters.Injected[fault.SALogic] == 0 || res.Counters.Corrected[fault.SALogic] == 0 {
		t.Fatalf("SA fault accounting empty: %+v", res.Counters)
	}
}

// VA-logic faults with the AC engaged (§4.1): all four upset scenarios
// are caught by the comparator.
func TestVALogicFaultsCorrected(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.VA = 0.002
	res := New(cfg).Run()
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("run incomplete: %v", res)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("VA faults leaked corruption: %+v", res)
	}
	inj := res.Counters.Injected[fault.VALogic]
	cor := res.Counters.Corrected[fault.VALogic]
	if inj == 0 || cor < inj {
		t.Fatalf("VA: injected %d corrected %d; AC must catch every VA upset", inj, cor)
	}
	if res.Counters.Undetected[fault.VALogic] != 0 {
		t.Fatalf("VA upsets escaped the AC: %d", res.Counters.Undetected[fault.VALogic])
	}
}

// The AC-off ablation: the same VA fault rate now corrupts real traffic
// (stranded packets, mixing, loss) — the paper's motivation for the unit.
func TestVALogicFaultsUnprotected(t *testing.T) {
	cfg := smallConfig()
	cfg.ACEnabled = false
	cfg.Faults.VA = 0.005
	cfg.StallCycles = 30_000
	cfg.MaxCycles = 200_000
	res := New(cfg).Run()
	damage := res.Counters.Undetected[fault.VALogic] + res.WormholeViolations +
		res.SinkAnomalies + res.StrayFlits + res.CorruptedPackets
	if damage == 0 {
		t.Fatal("AC-off run with VA faults showed no damage; ablation not meaningful")
	}
	if res.Counters.Corrected[fault.VALogic] != 0 {
		t.Fatal("AC disabled but VA corrections recorded")
	}
}

// The SA half of the AC-off ablation: an uncaught case-(c) corruption
// copies another grant's output port, and two flits must not leave one
// output in one cycle — the upset grant's flit is lost instead. These
// nine runs each ended in a retransmission-buffer overflow panic before
// that was so; now each must reach a verdict and show the damage.
func TestSALogicFaultsUnprotected(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults fault.Rates
	}{
		{"SA1e-3", fault.Rates{SA: 1e-3}},
		{"SA1e-2", fault.Rates{SA: 1e-2}},
		{"VA+SA1e-3", fault.Rates{VA: 1e-3, SA: 1e-3}},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				cfg := NewConfig()
				cfg.Width, cfg.Height = 4, 4
				cfg.ACEnabled = false
				cfg.Faults.SA, cfg.Faults.VA = c.faults.SA, c.faults.VA
				cfg.Seed = seed
				res := New(cfg).Run()
				t.Logf("stalled %v, delivered %d, %d wormhole violations, %d stray flits, %d sink anomalies",
					res.Stalled, res.Delivered, res.WormholeViolations, res.StrayFlits, res.SinkAnomalies)
				if !res.Stalled && res.Delivered < cfg.TotalMessages {
					t.Fatalf("run ended at cycle %d with %d/%d delivered and no stall verdict", res.Cycles, res.Delivered, cfg.TotalMessages)
				}
				if res.Counters.Undetected[fault.SALogic] == 0 || res.StrayFlits == 0 {
					t.Fatalf("AC-off SA upsets did no damage: undetected %d, stray flits %d",
						res.Counters.Undetected[fault.SALogic], res.StrayFlits)
				}
				if res.Counters.Corrected[fault.SALogic] != 0 {
					t.Fatal("AC disabled but SA corrections recorded")
				}
			})
		}
	}
}

// Fig. 13a's ordering at a common rate: SA corrections > LINK corrections
// > RT corrections, because SA arbitrates every flit (often repeatedly),
// links carry each flit once per hop, and RT touches only headers. It pins
// the ordering on this 4×4, 3 000-message run only: at full scale LINK
// leads SA at every rate, so SA > LINK does not reproduce there
// (EXPERIMENTS.md divergence 7).
func TestFig13aOrdering(t *testing.T) {
	rate := 0.001
	counts := map[fault.Class]uint64{}
	for _, cl := range []fault.Class{fault.LinkError, fault.RTLogic, fault.SALogic} {
		cfg := smallConfig()
		cfg.WarmupMessages = 300
		cfg.TotalMessages = 3_000
		switch cl {
		case fault.LinkError:
			cfg.Faults.Link = rate
		case fault.RTLogic:
			cfg.Faults.RT = rate
		case fault.SALogic:
			cfg.Faults.SA = rate
		}
		res := New(cfg).Run()
		if res.Stalled || res.Delivered < cfg.TotalMessages {
			t.Fatalf("%v run incomplete", cl)
		}
		counts[cl] = res.Counters.Corrected[cl]
	}
	if !(counts[fault.SALogic] > counts[fault.LinkError]) {
		t.Errorf("SA corrections (%d) not > LINK corrections (%d)", counts[fault.SALogic], counts[fault.LinkError])
	}
	if !(counts[fault.LinkError] > counts[fault.RTLogic]) {
		t.Errorf("LINK corrections (%d) not > RT corrections (%d)", counts[fault.LinkError], counts[fault.RTLogic])
	}
}

// A link dead from boot is a death at cycle 0, and a burst across it must
// end with exactly one verdict per packet under every routing function:
// no stall, no false deadlock recovery at the dead link, no corruption,
// no RT correction for a route the dead link alone blocks, and a clean
// invariant ledger.
func TestHardFaultNoFalseDeadlock(t *testing.T) {
	for _, alg := range []routing.Algorithm{routing.XY, routing.MinimalAdaptive, routing.FaultAdaptive} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Routing = alg
			cfg.InjectionRate = 0.05
			cfg.WarmupMessages = 0
			cfg.TotalMessages = 300
			cfg.InjectLimit = cfg.TotalMessages
			cfg.MaxCycles = 300_000
			cfg.StallCycles = 20_000
			cfg.Faults.Mortality = fault.Mortality{Links: []fault.LinkDeath{{From: 5, Dir: topology.East, Cycle: 0}}}
			chk := attachChecker(&cfg)
			res := New(cfg).Run()
			if res.Stalled {
				t.Fatalf("stalled at %d delivered + %d undeliverable", res.Delivered, res.Undeliverable)
			}
			if got := res.Delivered + res.Undeliverable; got != cfg.TotalMessages {
				t.Fatalf("%d delivered + %d undeliverable = %d verdicts, want %d",
					res.Delivered, res.Undeliverable, got, cfg.TotalMessages)
			}
			if res.DeadLinks != 1 || res.Recoveries != 0 {
				t.Fatalf("DeadLinks %d, Recoveries %d; want 1 and 0", res.DeadLinks, res.Recoveries)
			}
			if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 || res.StrayFlits != 0 {
				t.Fatalf("dead link damaged traffic: %+v", res)
			}
			if got := res.Counters.Corrected[fault.RTLogic]; got != 0 {
				t.Fatalf("%d RT corrections with no RT fault injected", got)
			}
			assertClean(t, alg.String(), chk)
		})
	}
}

// §4.4: crossbar transient faults produce single-bit upsets that the
// next hop's SEC/DED corrects — benign by design. Traffic stays intact
// and the corrections surface in the ECC counters even with no link
// errors injected.
func TestXbarFaultsCorrectedByECC(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults.Xbar = 0.01
	res := New(cfg).Run()
	if res.Stalled || res.Delivered < cfg.TotalMessages {
		t.Fatalf("run incomplete: %v", res)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("crossbar upsets corrupted traffic: %+v", res)
	}
	inj := res.Counters.Injected[fault.XbarError]
	if inj == 0 {
		t.Fatal("no crossbar faults injected at 1e-2")
	}
	if res.Counters.Corrected[fault.XbarError] != inj {
		t.Fatal("crossbar fault accounting inconsistent")
	}
	if res.TotalEvents.ECCCorrections == 0 {
		t.Fatal("ECC saw no corrections despite crossbar upsets")
	}
	if res.TotalEvents.Retransmitted != 0 {
		t.Fatalf("single-bit crossbar upsets caused %d retransmissions; should be corrected in place",
			res.TotalEvents.Retransmitted)
	}
}

// A crossbar upset lands after one hop's check and before the next
// transmitter captures the flit for retransmission, so the shifter holds
// the flipped copy. An E2E hop that NACKed a single-bit header error
// replayed that copy into the same NACK forever: these seeds wedged with
// 1 059, 1 832 and 1 300 of 4 000 delivered. An E2E hop corrects what it
// decodes (DESIGN.md §3), so the upsets cost no NACK at all.
func TestE2EXbarUpsetsDeliverEveryMessage(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := NewConfig()
		cfg.Protection = link.E2E
		cfg.TotalMessages = 4_000
		cfg.Faults.Xbar = 1e-3
		cfg.StallCycles = 2_000
		cfg.Seed = seed
		res := New(cfg).Run()
		if res.Stalled || res.Delivered < cfg.TotalMessages {
			t.Fatalf("seed %d: %d of %d delivered (stalled %v) after %d NACKs",
				seed, res.Delivered, cfg.TotalMessages, res.Stalled, res.Counters.NACKs)
		}
		if res.Counters.Injected[fault.XbarError] == 0 || res.Counters.NACKs != 0 {
			t.Fatalf("seed %d: %d crossbar upsets, %d NACKs; want some upsets and no NACK",
				seed, res.Counters.Injected[fault.XbarError], res.Counters.NACKs)
		}
	}
}

// A request tail word fails its check under every error of one to four
// bits: SEC/DED can decode three flips clean, one bit further off, so a
// request that crossed links with accumulated errors drops as corrupt,
// never read as a request for another packet or delivered as a message.
func TestRequestWordRejectsCorruption(t *testing.T) {
	for pid := flit.PacketID(1); pid <= 1<<40; pid = pid*5 + 1 {
		w := requestWord(pid)
		if got, ok := requestedPID(w); !ok || got != pid&0xffffffff {
			t.Fatalf("request for %d decodes to (%d, %v)", pid, got, ok)
		}
		for i := 0; i < 64; i++ {
			for j := i; j < 64; j++ {
				for k := j; k < 64; k++ {
					for l := k; l < 64; l++ {
						e := uint64(1)<<i | uint64(1)<<j | uint64(1)<<k | uint64(1)<<l
						if got, ok := requestedPID(w ^ e); ok {
							t.Fatalf("request for %d with error %#x passes its check as a request for %d", pid, e, got)
						}
					}
				}
			}
		}
	}
}
