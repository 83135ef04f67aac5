package network

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
)

// TestInvariantCheckerCatchesCreditLeak is the checker's proof of work:
// a deliberately broken credit loop — every 4th freed buffer slot never
// reported back to the transmitter (link.Receiver.SkipCreditEvery) —
// must be flagged as a credit-conservation violation. A checker that
// passes clean runs but cannot see this bug would be decorative.
func TestInvariantCheckerCatchesCreditLeak(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 0
	cfg.TotalMessages = 400
	cfg.MaxCycles = 100_000
	cfg.StallCycles = 5_000
	cfg.Seed = 17
	chk := attachChecker(&cfg)
	n := New(cfg)

	// Break one inter-router receiver. The loops slice is ordered: every
	// inter-router link first, then the per-node PE channels.
	broken := n.loops[0]
	if broken.toPE {
		t.Fatal("expected loops[0] to be an inter-router link")
	}
	broken.rx.SkipCreditEvery(4)

	n.Run()

	creditViolations := 0
	for _, v := range chk.Violations() {
		if v.Check == "credits" {
			creditViolations++
			if v.Node != broken.node || v.Port != broken.port {
				t.Errorf("violation attributed to node %d port %d, leak is at node %d port %d",
					v.Node, v.Port, broken.node, broken.port)
			}
		}
	}
	if creditViolations == 0 {
		t.Fatalf("skipped credit returns went undetected (total violations: %d)", chk.Total())
	}
	if chk.Err() == nil {
		t.Fatal("Err() nil despite recorded violations")
	}
}

// TestInvariantCheckerCleanRun pins the other side of the contract: an
// unbroken run reports zero violations and a balanced ledger.
func TestInvariantCheckerCleanRun(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 0
	cfg.TotalMessages = 300
	cfg.MaxCycles = 100_000
	cfg.Seed = 23
	chk := attachChecker(&cfg)
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatal("clean run stalled")
	}
	assertClean(t, "clean", chk)
	injected, ejected, dropped, _ := chk.Stats()
	if injected == 0 || ejected == 0 {
		t.Fatalf("ledger empty: injected %d ejected %d", injected, ejected)
	}
	if dropped != 0 {
		t.Fatalf("fault-free run recorded %d terminal drops", dropped)
	}
	if ejected+dropped > injected {
		t.Fatalf("ledger overflow: %d ejected + %d dropped > %d injected", ejected, dropped, injected)
	}
}

// TestInvariantCheckerBootDeaths exercises the audit under links dead
// from boot and adaptive routing — the configuration most likely to bend
// flow control — and still demands a spotless verdict.
func TestInvariantCheckerBootDeaths(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Routing = routing.MinimalAdaptive
	cfg.WarmupMessages = 0
	cfg.TotalMessages = 300
	cfg.MaxCycles = 200_000
	cfg.Seed = 29
	cfg.Faults.Link = 1e-3
	cfg.Faults.Mortality = fault.Mortality{Links: []fault.LinkDeath{
		{From: 5, Dir: topology.East, Cycle: 0},
		{From: 10, Dir: topology.North, Cycle: 0},
	}}
	chk := attachChecker(&cfg)
	New(cfg).Run()
	assertClean(t, "boot-deaths", chk)
}

// TestRandomizedDifferentialProperty is the property-based harness: a
// seeded stream of random configurations, each run under both schedules
// with the invariant checker attached. The property is twofold — the
// kernels agree exactly, and no configuration drives the simulator into
// an invariant violation. FTNOC_SOAK=1 widens the sample for long CI
// soak runs.
func TestRandomizedDifferentialProperty(t *testing.T) {
	iters := 6
	if os.Getenv("FTNOC_SOAK") != "" {
		iters = 60
	}
	rng := rand.New(rand.NewSource(0xF7A0C))
	algs := []routing.Algorithm{routing.XY, routing.OddEven, routing.MinimalAdaptive}
	prots := []link.Protection{link.HBH, link.E2E, link.FEC}
	for i := 0; i < iters; i++ {
		cfg := NewConfig()
		cfg.Width = 3 + rng.Intn(3)
		cfg.Height = 3 + rng.Intn(3)
		cfg.VCs = 2 + rng.Intn(3)
		cfg.BufDepth = 2 + rng.Intn(4)
		cfg.PacketSize = 2 + rng.Intn(4)
		cfg.PipelineDepth = 1 + rng.Intn(4)
		cfg.Routing = algs[rng.Intn(len(algs))]
		cfg.Protection = prots[rng.Intn(len(prots))]
		cfg.InjectionRate = 0.05 + 0.25*rng.Float64()
		cfg.Faults.Link = []float64{0, 1e-3, 1e-2}[rng.Intn(3)]
		cfg.WarmupMessages = 0
		cfg.TotalMessages = 150
		cfg.MaxCycles = 300_000
		cfg.Seed = rng.Uint64()

		hash, err := cfg.CanonicalHash()
		if err != nil {
			t.Fatalf("hashing config: %v", err)
		}
		t.Run(hash[:12], func(t *testing.T) {
			t.Parallel()
			want, _ := runKernel(t, cfg, naive)
			if got, _ := runKernel(t, cfg, event); !reflect.DeepEqual(want, got) {
				t.Fatalf("event kernel diverged on %+v:\nnaive: %+v\nevent: %+v", cfg, want, got)
			}
		})
	}
}

// TestInvariantCheckerStalledRun ensures Finalize does not misreport a
// stalled run's stranded packets as conservation violations: stalls are
// legitimate outcomes (e.g. saturation without recovery), and the
// checker only demands full accounting from clean terminations.
func TestInvariantCheckerStalledRun(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 3, 3
	cfg.RecoveryEnabled = false
	cfg.InjectionRate = 0.9 // saturating
	cfg.WarmupMessages = 0
	cfg.TotalMessages = 100_000
	cfg.MaxCycles = 30_000
	cfg.StallCycles = 2_000
	cfg.Seed = 31
	chk := attachChecker(&cfg)
	New(cfg).Run()
	for _, v := range chk.Violations() {
		if v.Check == "conservation" {
			t.Fatalf("stalled/truncated run misreported as conservation violation: %v", v)
		}
	}
}

// TestInvariantConfigDefaults pins the zero-value behaviour the CLI
// relies on (-check with no tuning must be usable).
func TestInvariantConfigDefaults(t *testing.T) {
	chk := invariant.New(invariant.Config{})
	if chk.Every() != 1 {
		t.Errorf("default audit stride = %d, want 1", chk.Every())
	}
	if chk.RecoveryBound() != 1<<17 {
		t.Errorf("default recovery bound = %d, want %d", chk.RecoveryBound(), 1<<17)
	}
	if err := chk.Err(); err != nil {
		t.Errorf("fresh checker reports error: %v", err)
	}
}

// TestInvariantCheckerCatchesDroppedMark is the mask-soundness law's
// proof of work: one input wire's delivery hook loses its mark (the wake
// survives), so flits become visible on a port whose rxPending bit stays
// clear and the router — woken, but told there is nothing to poll —
// never ingests them. The per-cycle state walk must report exactly that
// port, under both schedules, from the first cycle a flit sits there.
func TestInvariantCheckerCatchesDroppedMark(t *testing.T) {
	for _, k := range []schedule{naive, event} {
		cfg := NewConfig()
		cfg.Width, cfg.Height = 4, 4
		cfg.WarmupMessages = 0
		cfg.TotalMessages = 400
		cfg.MaxCycles = 20_000
		cfg.StallCycles = 2_000
		cfg.Seed = 17
		chk := attachChecker(&cfg)
		n := k.build(cfg)

		broken := n.loops[0]
		if broken.toPE || broken.fromPE {
			t.Fatal("expected loops[0] to be an inter-router link")
		}
		broken.ch.MarkRx(nil, 0)

		n.Run()

		found := 0
		for _, v := range chk.Violations() {
			if v.Check != "port-masks" {
				continue
			}
			found++
			if v.Node != int32(broken.downNode) || v.Port != int8(broken.downPort) || v.Cycle == 0 {
				t.Errorf("%v kernel: violation %v, want node %d port %d at a cycle > 0",
					k, v, broken.downNode, broken.downPort)
			}
		}
		if found == 0 {
			t.Fatalf("%v kernel: dropped rxPending mark went undetected (total violations: %d)", k, chk.Total())
		}
	}
}
