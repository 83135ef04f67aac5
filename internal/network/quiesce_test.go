package network

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/router"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/trace"
)

// attachChecker gives cfg a fresh runtime invariant checker (one per
// run — checkers are stateful) and returns it for the post-run verdict.
func attachChecker(cfg *Config) *invariant.Checker {
	chk := invariant.New(invariant.Config{})
	cfg.Invariants = chk
	return chk
}

// assertClean fails the test if the checker recorded any violation, and
// sanity-checks that it actually audited traffic (a checker that saw
// nothing proves nothing).
func assertClean(t *testing.T, label string, chk *invariant.Checker) {
	t.Helper()
	for i, v := range chk.Violations() {
		if i >= 5 {
			t.Errorf("%s: ... and %d more violations", label, chk.Total()-i)
			break
		}
		t.Errorf("%s: %v", label, v)
	}
	injected, _, _, events := chk.Stats()
	if injected == 0 || events == 0 {
		t.Fatalf("%s: checker audited no traffic (injected %d, events %d)", label, injected, events)
	}
}

// diffConfig builds one point of the differential grid: a small network
// with packet journeys traced so the comparison covers event timing, not
// just aggregate counts.
func diffConfig(alg routing.Algorithm, prot link.Protection, linkRate float64, seed uint64) Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Routing = alg
	cfg.Protection = prot
	cfg.Faults.Link = linkRate
	cfg.Seed = seed
	cfg.WarmupMessages = 50
	cfg.TotalMessages = 600
	cfg.MaxCycles = 300_000
	cfg.TracePIDs = []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	return cfg
}

// schedule is how a test builds its network: event as New does, with
// routers and PEs that sleep while idle, or naive, the oracle New is held
// to, in which nobody was opted in and the kernel ticks every actor every
// cycle. The names key subtests.
type schedule bool

const (
	naive schedule = false
	event schedule = true
)

func (s schedule) String() string {
	if s == event {
		return "event"
	}
	return "naive"
}

func (s schedule) build(cfg Config) *Network { return build(nil, cfg, bool(s)) }

// runKernel executes cfg under the given schedule with a fresh checker
// attached and returns the results plus the kernel's counters. Results
// are DeepEqual-comparable as returned: the counters are a snapshot with
// no Observer callback attached.
func runKernel(t *testing.T, cfg Config, k schedule) (Results, sim.Stats) {
	t.Helper()
	chk := attachChecker(&cfg)
	n := k.build(cfg)
	res := n.Run()
	assertClean(t, k.String(), chk)
	return res, n.KernelStats()
}

// captureSink records every trace event in emission order, so two runs
// can be compared event-for-event — a much stronger check than Results
// equality alone, because it pins down the cycle stamp and the ordering
// of every event, not just the aggregate outcome.
type captureSink struct{ events []trace.Event }

func (c *captureSink) Emit(e trace.Event) { c.events = append(c.events, e) }

// runCapture executes cfg under the given schedule with a trace capture
// attached and returns the results plus the ordered stream.
func runCapture(t *testing.T, cfg Config, k schedule) (Results, []trace.Event) {
	t.Helper()
	sink := &captureSink{}
	cfg.TraceSink = sink
	return k.build(cfg).Run(), sink.events
}

// TestKernelDifferential is the scheduling contract made executable: for
// every grid point, New's network must produce Results — counters,
// latencies, utilizations, and the traced packet journeys — deeply equal
// to the naive tick-everyone oracle's. Subtests
// are keyed by the config's canonical hash, so a failure names the exact
// reproducible configuration.
func TestKernelDifferential(t *testing.T) {
	point := func(label string, cfg Config) {
		hash, err := cfg.CanonicalHash()
		if err != nil {
			t.Fatalf("hashing config: %v", err)
		}
		t.Run(fmt.Sprintf("%s-%s", label, hash[:12]), func(t *testing.T) {
			t.Parallel()
			want, ks := runKernel(t, cfg, naive)
			if ks.Skipped != 0 || ks.Events != 0 {
				t.Fatalf("naive kernel skipped %d ticks and dispatched %d", ks.Skipped, ks.Events)
			}
			got, ks := runKernel(t, cfg, event)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("event kernel diverged from naive:\nnaive: %+v\nevent: %+v", want, got)
			}
			if ks.Skipped == 0 && cfg.Faults.Link == 0 {
				t.Errorf("event kernel never skipped a tick on a fault-free run")
			}
		})
	}
	algs := []routing.Algorithm{routing.XY, routing.OddEven}
	prots := []link.Protection{link.HBH, link.E2E, link.FEC}
	rates := []float64{0, 1e-3, 1e-2}
	for _, alg := range algs {
		for _, prot := range prots {
			for _, rate := range rates {
				point(fmt.Sprintf("%s-%s-%g", alg, prot, rate), diffConfig(alg, prot, rate, 7))
			}
		}
	}
	// The allocator masks' edges: one VC per channel, and router.MaxVCs,
	// where the last input VC is bit 59 and a rotation wraps to bit 0.
	for _, vcs := range []int{1, router.MaxVCs} {
		cfg := diffConfig(routing.OddEven, link.HBH, 1e-3, 7)
		cfg.VCs = vcs
		point(fmt.Sprintf("vcs%d", vcs), cfg)
	}
}

// TestKernelDifferentialBurst covers the injection-limit path: once the
// network-wide limit is reached, sleeping sources stop replaying their
// accumulators — that divergence must stay unobservable under a
// skipping scheduler.
func TestKernelDifferentialBurst(t *testing.T) {
	cfg := diffConfig(routing.XY, link.HBH, 1e-3, 11)
	cfg.WarmupMessages = 0
	cfg.InjectLimit = 400
	cfg.TotalMessages = 400
	want, _ := runKernel(t, cfg, naive)
	if want.Delivered != 400 {
		t.Fatalf("burst delivered %d/400", want.Delivered)
	}
	if got, _ := runKernel(t, cfg, event); !reflect.DeepEqual(want, got) {
		t.Fatalf("burst run diverged:\nnaive: %+v\nevent: %+v", want, got)
	}
}

// TestKernelDifferentialRecovery drives the deadlock-recovery and
// hard-fault machinery (probes, activations, reroutes) under both
// schedules: the protocol state machines must be cycle-identical too.
func TestKernelDifferentialRecovery(t *testing.T) {
	cfg := diffConfig(routing.MinimalAdaptive, link.HBH, 1e-3, 3)
	cfg.InjectionRate = 0.30
	cfg.Faults.RT = 5e-4
	cfg.Faults.SA = 5e-4
	cfg.Faults.VA = 5e-4
	want, _ := runKernel(t, cfg, naive)
	if got, _ := runKernel(t, cfg, event); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovery run diverged:\nnaive: %+v\nevent: %+v", want, got)
	}
}

// TestSparseScheduleUnchanged pins what the kernel does on the
// sparse_16x16 benchmark configuration (16x16, 0.02 load, seed 1001): the
// run's output and length and the exact tick schedule. A scheduler or
// accounting change that claims "same bytes out" must leave all of it
// alone; one that means to change the schedule re-pins the tick counts on
// purpose and leaves the Results digest where it was.
//
// Re-pinned by ISSUE 17 from 235211 ticked / 786741 skipped: the 63262
// ticks that disappeared are the timed wakes routers and PEs used to
// declare at their oldest shifter entry's expiry — an actor that had sent
// its last flit and gone quiet woke up to three cycles later only to
// shift that entry out. Those ticks read no wire and changed nothing
// another tick or an observer reads: the entry leaves its NACK window by
// the clock (link.Transmitter), the occupancy sampler counts it by its
// send cycle, and a router's round-robin origins are the cycle's either
// way. The Results digest, the cycle count and the naive kernel's schedule
// are what they were.
func TestSparseScheduleUnchanged(t *testing.T) {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.InjectionRate = 0.02
	cfg.Faults.Link = 1e-5
	cfg.WarmupMessages, cfg.TotalMessages = 500, 2500
	cfg.Seed = 1001
	n := New(cfg)
	res := n.Run()
	ks := n.KernelStats()
	if ks.Ticked != 171949 || ks.Skipped != 850003 || ks.Events != 171949 {
		t.Errorf("kernel stats %+v, want 171949 ticked / 850003 skipped / 171949 events", ks)
	}
	if ks.Ticked >= 235211 {
		t.Errorf("%d ticks: not below the 235211 of the schedule with expiry wakes", ks.Ticked)
	}
	if res.Cycles != 1996 {
		t.Errorf("run took %d cycles, want 1996", res.Cycles)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(js); hex.EncodeToString(sum[:8]) != "e6c45571b370fa26" {
		t.Errorf("Results digest %x, want e6c45571b370fa26 (unchanged since PR 12)", sum[:8])
	}
}
