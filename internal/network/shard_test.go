package network

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
)

// shardConfigs are the differential grid of the two-shard kernel: every
// walkPinConfigs entry at seeds 1 and 2, on the 8x8 mesh that splits into
// two shards and with journeys off (an observer on the bus keeps a run to
// one shard), plus the bench's heavy-fault 8x8 point and its sparse 16x16
// one, both cut short, and an 8x8 point with a metrics registry attached
// (runShards gives each run a registry of its own at the same interval),
// and an 8x8 point whose InjectLimit closes injection before TotalMessages
// is delivered (the run ends stalled), at a limit that a step sharded
// across it would overshoot.
func shardConfigs() []walkPin {
	var out []walkPin
	for seed := uint64(1); seed <= 2; seed++ {
		for _, p := range walkPinConfigs(seed) {
			p.cfg.Width, p.cfg.Height = 8, 8
			p.cfg.TracePIDs = nil
			out = append(out, walkPin{fmt.Sprintf("%s/seed%d", p.name, seed), p.cfg})
		}
	}
	heavy := NewConfig()
	heavy.WarmupMessages, heavy.TotalMessages = 300, 1500
	heavy.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
	sparse := NewConfig()
	sparse.Width, sparse.Height = 16, 16
	sparse.InjectionRate = 0.02
	sparse.WarmupMessages, sparse.TotalMessages = 100, 500
	metrics := NewConfig()
	metrics.WarmupMessages, metrics.TotalMessages = 300, 1500
	metrics.Faults.Link = 1e-2
	metrics.Metrics = trace.NewMetrics(io.Discard, 50)
	limit := NewConfig()
	limit.WarmupMessages, limit.TotalMessages = 300, 1500
	limit.InjectLimit, limit.StallCycles = 1150, 200
	return append(out, walkPin{"faults-heavy-8x8", heavy}, walkPin{"sparse-16x16", sparse}, walkPin{"metrics-8x8", metrics},
		walkPin{"inject-limit-8x8", limit})
}

// runShards runs cfg, as one shard when one is set (every core held) and
// otherwise as two where the kernel can claim the cores, and returns its
// JSON Results, its Metrics NDJSON and how many steps ran as two shards.
func runShards(t *testing.T, cfg Config, one bool) (js, rows []byte, steps uint64) {
	t.Helper()
	var buf bytes.Buffer
	if cfg.Metrics != nil {
		cfg.Metrics = trace.NewMetrics(&buf, cfg.Metrics.Interval())
	}
	if one {
		procs := runtime.GOMAXPROCS(0)
		sim.HoldCores(procs)
		defer sim.ReleaseCores(procs)
	}
	n := New(cfg)
	js, err := json.Marshal(n.Run())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metrics != nil {
		if err := cfg.Metrics.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return js, buf.Bytes(), n.KernelStats().Sharded
}

// A run's Results and Metrics NDJSON are byte-identical whether the
// kernel ticks one shard or two. Every configuration without hard-fault
// state shards in most of its steps; the mortality one never does. At
// one P nothing shards: the kernel cannot claim two cores.
func TestShardedKernelDifferential(t *testing.T) {
	for _, procs := range []int{max(2, runtime.GOMAXPROCS(0)), 1} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, p := range shardConfigs() {
				t.Run(p.name, func(t *testing.T) {
					if procs == 1 {
						if _, _, steps := runShards(t, p.cfg, false); steps != 0 {
							t.Fatalf("%d steps ran as two shards at one P", steps)
						}
						return
					}
					one, oneRows, none := runShards(t, p.cfg, true)
					two, twoRows, steps := runShards(t, p.cfg, false)
					if none != 0 {
						t.Fatalf("one shard ran %d steps as two", none)
					}
					if !bytes.Equal(one, two) {
						t.Fatalf("Results differ between one shard and two:\n%s\n%s", one, two)
					}
					if p.cfg.Metrics != nil && len(oneRows) == 0 {
						t.Fatal("the metrics registry wrote nothing")
					}
					if !bytes.Equal(oneRows, twoRows) {
						t.Fatalf("Metrics NDJSON differs between one shard and two (%d and %d bytes)", len(oneRows), len(twoRows))
					}
					var res Results
					if err := json.Unmarshal(one, &res); err != nil {
						t.Fatal(err)
					}
					hard := p.cfg.Faults.Mortality.Enabled() || p.cfg.Routing == routing.FaultAdaptive
					if hard == (steps > res.Cycles/2) {
						t.Errorf("%d of %d steps ran as two shards (hard-fault state: %v)", steps, res.Cycles, hard)
					}
				})
			}
		})
	}
}

// The warm-up boundary keeps a step to one shard only when the step could
// make the WarmupMessages-th delivery. The bench's sparse 16x16 point
// ticks all but a few of its steps as two shards (a bound of one delivery
// per node kept 195 of its 1995 steps on one). Runs stay byte-identical to
// one shard with the boundary delivery swept over eight positions: at
// 0.25, where several tails eject in a step, at each position of such a
// step in turn; at 0.02 with two-flit packets, in steps whose visible
// flits are exactly the tails still missing, the bound's equality case.
func TestWarmupBoundaryShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	sparse := NewConfig()
	sparse.Width, sparse.Height = 16, 16
	sparse.InjectionRate = 0.02
	sparse.WarmupMessages, sparse.TotalMessages = 500, 2500
	sparse.Faults.Link = 1e-5
	sparse.Seed = 1000
	js, _, steps := runShards(t, sparse, false)
	var res Results
	if err := json.Unmarshal(js, &res); err != nil {
		t.Fatal(err)
	}
	if res.Cycles-steps > 8 {
		t.Errorf("sparse 16x16: %d of %d steps ran as one shard, want at most 8", res.Cycles-steps, res.Cycles)
	}

	busy := NewConfig()
	busy.TotalMessages = 800
	quiet := NewConfig()
	quiet.InjectionRate, quiet.PacketSize = 0.02, 2
	quiet.TotalMessages = 400
	for _, p := range []walkPin{{"0.25", busy}, {"0.02", quiet}} {
		for w := uint64(300); w < 308; w++ {
			p.cfg.WarmupMessages = w
			one, _, _ := runShards(t, p.cfg, true)
			two, _, steps := runShards(t, p.cfg, false)
			if !bytes.Equal(one, two) {
				t.Fatalf("%s, warm-up %d: Results differ between one shard and two:\n%s\n%s", p.name, w, one, two)
			}
			if steps == 0 {
				t.Fatalf("%s, warm-up %d: no step ran as two shards", p.name, w)
			}
		}
	}
}

// A lone run claims two cores and shards, and gives them back whether it
// runs to its end or is cancelled mid-run (a panic mid-run is
// TestShardPanicReachesRunCaller's). A 6x6 run, whose split (32/4 nodes)
// would leave shard 1 under a third of the mesh, and a run with a trace
// sink or the invariant checker attached never shard.
func TestShardCoreBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := NewConfig()
	cfg.WarmupMessages, cfg.TotalMessages = 100, 600
	if !shardsAlone(cfg) {
		t.Error("a lone run on two free cores ticked one shard")
	}
	if !shardsAlone(cfg) {
		t.Fatal("the run did not give its cores back")
	}

	long := cfg
	long.TotalMessages, long.MaxCycles, long.StallCycles = 1_000_000, 500_000_000, 500_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	n := New(long)
	if res := n.RunContext(ctx); !res.Aborted || n.KernelStats().Sharded == 0 {
		t.Fatalf("aborted %v after %d steps as two shards: the cancel did not come mid-run", res.Aborted, n.KernelStats().Sharded)
	}
	if !shardsAlone(cfg) {
		t.Fatal("the cancelled run did not give its cores back")
	}

	small := cfg
	small.Width, small.Height = 6, 6
	sink := cfg
	sink.TraceSink = trace.NewNDJSON(new(bytes.Buffer))
	inv := cfg
	attachChecker(&inv)
	for name, c := range map[string]Config{"6x6": small, "sink": sink, "invariants": inv} {
		n := New(c)
		n.Run()
		if s := n.KernelStats().Sharded; s != 0 {
			t.Errorf("%s: %d steps ran as two shards", name, s)
		}
	}
}

// shardsAlone reports whether a run of cfg ticks two shards with all but
// two cores of GOMAXPROCS held, as it can only if no earlier run kept its
// claim.
func shardsAlone(cfg Config) bool {
	held := runtime.GOMAXPROCS(0) - 2
	sim.HoldCores(held)
	defer sim.ReleaseCores(held)
	n := New(cfg)
	n.Run()
	return n.KernelStats().Sharded > 0
}

// panicAfter is a link corruptor that panics on its k-th flit.
type panicAfter struct{ k int }

func (p *panicAfter) Corrupt(*flit.Flit) fault.LinkOutcome {
	if p.k--; p.k == 0 {
		panic("boom")
	}
	return fault.NoError
}

// A panic in shard 0 mid-run reaches Run's caller, and the run gives back
// its helper and its cores. Shard 1 may still be ticking when shard 0
// unwinds; under the race detector this shows that nothing the unwinding
// does (committing the cut channels' outboxes) races it.
func TestShardPanicReachesRunCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := NewConfig()
	cfg.WarmupMessages, cfg.TotalMessages = 100, 2000
	n := New(cfg)
	// Node 9's east link leaves a router of shard 0.
	n.chanAt[9*int(topology.NumPorts)+int(topology.East)].SetCorruptor(&panicAfter{k: 100})
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the link's panic", p)
			}
		}()
		n.Run()
		t.Fatal("no panic")
	}()
	if n.KernelStats().Sharded == 0 {
		t.Fatal("the run never ticked two shards: the test proves nothing")
	}
	cfg.TotalMessages = 600
	if !shardsAlone(cfg) {
		t.Fatal("the run did not give its cores back")
	}
}
