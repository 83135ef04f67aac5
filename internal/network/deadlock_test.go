package network

import (
	"testing"

	"ftnoc/internal/routing"
)

// deadlockProneConfig builds a network where fully-adaptive minimal
// routing with a single VC and tiny buffers deadlocks quickly: the exact
// hazard the paper's recovery scheme (§3.2) exists for.
func deadlockProneConfig() Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Routing = routing.MinimalAdaptive
	cfg.VCs = 1
	// T=6, R=3, M=4 satisfies the Eq. (1) worst case exactly as the
	// paper's Fig. 11 example does (6+3 = 9 > 4x2 = 8). A 4-deep buffer
	// would be under-provisioned for partial-packet absorption and
	// recovery could legitimately fail.
	cfg.BufDepth = 6
	cfg.InjectionRate = 0.6
	cfg.PacketSize = 4
	cfg.Cthres = 32
	cfg.WarmupMessages = 0
	// Burst workload: a bounded population must drain completely. The
	// Eq. (1) theorem speaks to a fixed set of deadlocked messages;
	// sustained 2x-oversaturation would regenerate deadlocks faster than
	// any detection scheme can clear them.
	cfg.InjectLimit = 3_000
	cfg.TotalMessages = 3_000
	cfg.StallCycles = 20_000
	cfg.MaxCycles = 400_000
	cfg.Seed = 1
	return cfg
}

// Without recovery, the adaptive single-VC network wedges: the run must
// hit the stall detector with undelivered traffic.
func TestAdaptiveSingleVCDeadlocksWithoutRecovery(t *testing.T) {
	cfg := deadlockProneConfig()
	cfg.RecoveryEnabled = false
	res := New(cfg).Run()
	if !res.Stalled {
		t.Skip("workload did not deadlock without recovery at this seed; recovery test still meaningful")
	}
	if res.Delivered >= cfg.TotalMessages {
		t.Fatal("stalled run claims full delivery")
	}
}

// With probing + retransmission-buffer recovery enabled, the same
// workload completes, and recovery actually fires.
func TestDeadlockRecoveryUnblocksNetwork(t *testing.T) {
	cfg := deadlockProneConfig()
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatalf("network stalled despite recovery (recoveries=%d probes=%d delivered=%d)",
			res.Recoveries, res.ProbesSent, res.Delivered)
	}
	if res.Delivered < cfg.TotalMessages {
		t.Fatalf("delivered %d/%d", res.Delivered, cfg.TotalMessages)
	}
	if res.ProbesSent == 0 {
		t.Fatal("no probes sent in a deadlock-prone workload")
	}
	if res.Recoveries == 0 {
		t.Fatal("no recovery episodes despite completing a deadlock-prone workload")
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 || res.StrayFlits != 0 {
		t.Fatalf("recovery corrupted traffic: %+v", res)
	}
}

// The Rule-1 scan sleeps until rule1At, which must stay at or below every
// live VC's lastProgress + Cthres, and "active" must stay the union of the
// SA masks — both part of the vc-masks law, audited here on every cycle of
// the workload that blocks, probes and recovers the most. Mutation-checked:
// recomputing the bound over the busy (VA-waiting and active) VCs alone,
// which leaves out an idle VC holding the next packet's head, or dropping
// the lowering when ingestData restarts a clock, fires the law here.
func TestRule1BoundHoldsUnderDeadlock(t *testing.T) {
	cfg := deadlockProneConfig()
	chk := attachChecker(&cfg)
	res := New(cfg).Run()
	assertClean(t, "deadlock-prone", chk)
	if res.Stalled || res.ProbesSent == 0 || res.Recoveries == 0 {
		t.Fatalf("workload did not block, probe and recover to completion: %+v", res)
	}
}

// Probing must not produce false positives: under heavy but deadlock-free
// (XY) traffic, blocked packets may exceed Cthres and send probes, but no
// probe may complete a loop (XY has no cyclic channel dependencies), so
// no node may ever enter recovery.
func TestNoFalsePositivesUnderXY(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.InjectionRate = 0.9 // deep saturation: plenty of long blocking
	cfg.Cthres = 16
	cfg.WarmupMessages = 0
	cfg.TotalMessages = 2_000
	cfg.MaxCycles = 400_000
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatal("XY network stalled")
	}
	if res.Recoveries != 0 {
		t.Fatalf("probing falsely confirmed deadlock %d times in a deadlock-free network (probes=%d)",
			res.Recoveries, res.ProbesSent)
	}
}

// The recovery path must also work while link errors are being injected:
// the shared retransmission buffers serve both duties (§3.2's resource-
// sharing claim).
func TestRecoveryWithLinkErrors(t *testing.T) {
	cfg := deadlockProneConfig()
	cfg.Faults.Link = 0.01
	cfg.TotalMessages = 2_000
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatalf("stalled: %+v", res)
	}
	if res.Delivered < cfg.TotalMessages {
		t.Fatalf("delivered %d/%d", res.Delivered, cfg.TotalMessages)
	}
	if res.CorruptedPackets != 0 || res.SinkAnomalies != 0 {
		t.Fatalf("corruption leaked: %+v", res)
	}
}
