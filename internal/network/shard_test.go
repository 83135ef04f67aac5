package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
)

// shardConfigs are the differential grid of the two-shard kernel: every
// walkPinConfigs entry at seeds 1 and 2, on the 8x8 mesh that splits into
// two shards and with journeys off (an observer keeps a run to one
// shard), plus the bench's heavy-fault 8x8 point and its sparse 16x16
// one, both cut short.
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
	return append(out, walkPin{"faults-heavy-8x8", heavy}, walkPin{"sparse-16x16", sparse})
}

// runShards runs cfg with the kernel's shard count forced to shards and
// returns the JSON Results and how many steps ran as two shards.
func runShards(t *testing.T, cfg Config, shards int) ([]byte, uint64) {
	t.Helper()
	n := New(cfg)
	n.shards = shards
	js, err := json.Marshal(n.Run())
	if err != nil {
		t.Fatal(err)
	}
	return js, n.KernelStats().Sharded
}

// A run's Results are byte-identical whether the kernel ticks one shard
// or two, with the helper on a core of its own and sharing the only one
// (GOMAXPROCS=1). Every configuration that may shard does, in most of its
// steps; the mortality one never does.
func TestShardedKernelDifferential(t *testing.T) {
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, p := range shardConfigs() {
				t.Run(p.name, func(t *testing.T) {
					one, none := runShards(t, p.cfg, 1)
					two, steps := runShards(t, p.cfg, 2)
					if none != 0 {
						t.Fatalf("one shard ran %d steps as two", none)
					}
					if !bytes.Equal(one, two) {
						t.Fatalf("Results differ between one shard and two:\n%s\n%s", one, two)
					}
					var res Results
					if err := json.Unmarshal(one, &res); err != nil {
						t.Fatal(err)
					}
					if shardable(&p.cfg) != (steps > res.Cycles/2) {
						t.Errorf("%d of %d steps ran as two shards (shardable: %v)", steps, res.Cycles, shardable(&p.cfg))
					}
				})
			}
		})
	}
}

// A lone run on two or more procs claims a spare core and shards; a 6x6
// run, whose split (32/4 nodes) would leave shard 1 under a third of the
// mesh, and a run with a trace sink or the invariant checker attached
// never do, not even when a test forces two shards.
func TestShardCoreBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := NewConfig()
	cfg.WarmupMessages, cfg.TotalMessages = 100, 600
	n := New(cfg)
	n.Run()
	if n.KernelStats().Sharded == 0 {
		t.Error("a lone run on two procs ticked one shard")
	}
	if !claimAll() {
		t.Fatal("the run did not release its cores")
	}

	small := cfg
	small.Width, small.Height = 6, 6
	sink := cfg
	sink.TraceSink = trace.NewNDJSON(new(bytes.Buffer))
	inv := cfg
	attachChecker(&inv)
	for name, c := range map[string]Config{"6x6": small, "sink": sink, "invariants": inv} {
		for _, forced := range []int{0, 2} {
			n := New(c)
			n.shards = forced
			n.Run()
			if s := n.KernelStats().Sharded; s != 0 {
				t.Errorf("%s, shards forced to %d: %d steps ran as two shards", name, forced, s)
			}
		}
	}
}

// claimAll reports whether every core of GOMAXPROCS is unclaimed, by
// claiming and releasing them.
func claimAll() bool {
	procs := runtime.GOMAXPROCS(0)
	if !sim.ClaimCores(procs) {
		return false
	}
	sim.ReleaseCores(procs)
	return true
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
	if !claimAll() {
		t.Fatal("the run did not release its cores")
	}
}
