package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
	"ftnoc/internal/traffic"
)

// tinyBase is a 4x4 platform small enough that a grid of points runs in
// well under a second per point.
func tinyBase() network.Config {
	cfg := network.NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 50
	cfg.TotalMessages = 300
	cfg.MaxCycles = 100_000
	cfg.StallCycles = 30_000
	return cfg
}

func TestSpecPointsExpansion(t *testing.T) {
	spec := Spec{
		Base:           tinyBase(),
		Routings:       []routing.Algorithm{routing.XY, routing.MinimalAdaptive},
		Protections:    []link.Protection{link.HBH, link.E2E, link.FEC},
		LinkErrorRates: []float64{0, 1e-3},
		InjectionRates: []float64{0.1, 0.2},
	}
	points := spec.Points()
	if len(points) != 2*3*2*2 {
		t.Fatalf("got %d points, want 24", len(points))
	}
	// Injection is the innermost axis; indices are dense and ordered.
	if points[0].InjectionRate != 0.1 || points[1].InjectionRate != 0.2 {
		t.Fatalf("injection not innermost: %+v %+v", points[0], points[1])
	}
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Config.Routing != p.Routing || p.Config.Protection != p.Protection ||
			p.Config.Faults.Link != p.LinkErrorRate || p.Config.InjectionRate != p.InjectionRate {
			t.Fatalf("point %d config does not match coordinates: %+v", i, p)
		}
	}
	// Empty axes inherit the base value.
	single := Spec{Base: tinyBase()}.Points()
	if len(single) != 1 || single[0].Config.Routing != routing.XY ||
		single[0].Size != (Size{4, 4}) || single[0].Topology != topology.Mesh {
		t.Fatalf("base-only grid wrong: %+v", single)
	}
}

func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for point := 0; point < 8; point++ {
		for rep := 0; rep < 8; rep++ {
			s := DeriveSeed(1, point, rep)
			if s == 0 {
				t.Fatalf("zero seed at (%d,%d)", point, rep)
			}
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", point, rep)
			}
			seen[s] = true
			if s != DeriveSeed(1, point, rep) {
				t.Fatal("DeriveSeed not deterministic")
			}
		}
	}
	if DeriveSeed(1, 0, 0) == DeriveSeed(2, 0, 0) {
		t.Fatal("base seed ignored")
	}
}

// TestCampaignDeterminism is the engine's core guarantee: a parallel run
// (workers=8) produces per-point results identical to a serial run
// (workers=1) of the same spec.
func TestCampaignDeterminism(t *testing.T) {
	spec := Spec{
		Base:           tinyBase(),
		Routings:       []routing.Algorithm{routing.XY, routing.MinimalAdaptive},
		LinkErrorRates: []float64{0, 1e-3},
		InjectionRates: []float64{0.1, 0.2},
		Seeds:          2,
	}

	serial := spec
	serial.Workers = 1
	parallel := spec
	parallel.Workers = 8

	rs, err := Run(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Points) != 8 || len(rp.Points) != 8 {
		t.Fatalf("point counts: serial %d, parallel %d, want 8", len(rs.Points), len(rp.Points))
	}
	for i := range rs.Points {
		ps, pp := rs.Points[i], rp.Points[i]
		if ps.Err != nil || pp.Err != nil {
			t.Fatalf("point %d errored: serial %v, parallel %v", i, ps.Err, pp.Err)
		}
		if ps.Agg.Completed != len(ps.Reps) {
			t.Fatalf("point %d incomplete: %+v", i, ps.Agg)
		}
		if !reflect.DeepEqual(ps.Reps, pp.Reps) {
			t.Errorf("point %d replicate results differ between workers=1 and workers=8", i)
		}
		if !reflect.DeepEqual(ps.Agg, pp.Agg) {
			t.Errorf("point %d aggregates differ: serial %+v, parallel %+v", i, ps.Agg, pp.Agg)
		}
	}
}

// TestCampaignErrorIsolation: one invalid grid point fails with a wrapped
// ErrInvalidConfig while every other point completes.
func TestCampaignErrorIsolation(t *testing.T) {
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 1.5, 0.2}, // 1.5 is out of [0,1]
		Workers:        4,
	}
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Points) != 3 {
		t.Fatalf("got %d points", len(report.Points))
	}
	bad := report.Points[1]
	if bad.Err == nil || !errors.Is(bad.Err, network.ErrInvalidConfig) {
		t.Fatalf("invalid point error = %v, want ErrInvalidConfig", bad.Err)
	}
	if !bad.Failed() || bad.Agg.Completed != 0 {
		t.Fatalf("invalid point should have no completed reps: %+v", bad.Agg)
	}
	for _, i := range []int{0, 2} {
		p := report.Points[i]
		if p.Err != nil {
			t.Fatalf("valid point %d errored: %v", i, p.Err)
		}
		if p.Agg.Completed != 1 || p.Reps[0].Results.Delivered == 0 {
			t.Fatalf("valid point %d did not complete: %+v", i, p.Agg)
		}
	}
}

// TestCampaignAbort: a cancelled context stops the campaign promptly and
// marks the report aborted.
func TestCampaignAbort(t *testing.T) {
	base := tinyBase()
	base.TotalMessages = 50_000 // long enough that cancellation lands mid-run
	base.WarmupMessages = 0
	spec := Spec{
		Base:           base,
		InjectionRates: []float64{0.1, 0.15, 0.2, 0.25},
		Workers:        2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	report, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Aborted {
		t.Fatal("report not marked aborted")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("abort took %v", elapsed)
	}
}

// countingSink tallies events; the engine must serialise emissions so
// this needs no locking of its own beyond the engine's.
type countingSink struct {
	mu          sync.Mutex
	start, done int
}

func (c *countingSink) Emit(e trace.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case trace.CampaignRepBegin:
		c.start++
	case trace.CampaignRepEnd:
		c.done++
	}
}

func TestCampaignProgressEvents(t *testing.T) {
	sink := &countingSink{}
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 0.2},
		Seeds:          3,
		Workers:        4,
		Progress:       sink,
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if sink.start != 6 || sink.done != 6 {
		t.Fatalf("progress events start=%d done=%d, want 6/6", sink.start, sink.done)
	}
}

func TestReportCSVAndNDJSON(t *testing.T) {
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 1.5}, // second point invalid
		Seeds:          2,
		Workers:        2,
	}
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	var csvOut strings.Builder
	if err := report.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("CSV has %d lines:\n%s", len(lines), csvOut.String())
	}
	if !strings.HasPrefix(lines[0], "point,width,height,topology,routing") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
	if !strings.Contains(lines[2], "invalid config") {
		t.Fatalf("invalid point's CSV row lacks error: %s", lines[2])
	}

	var ndOut strings.Builder
	if err := report.WriteNDJSON(&ndOut); err != nil {
		t.Fatal(err)
	}
	ndLines := strings.Split(strings.TrimSpace(ndOut.String()), "\n")
	if len(ndLines) != 2 {
		t.Fatalf("NDJSON has %d lines", len(ndLines))
	}
	for i, l := range ndLines {
		var row map[string]any
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatalf("NDJSON line %d not JSON: %v", i, err)
		}
		if int(row["point"].(float64)) != i {
			t.Fatalf("NDJSON line %d out of order: %v", i, row["point"])
		}
	}
}

func TestRunConfigsOrderAndIsolation(t *testing.T) {
	good := tinyBase()
	bad := tinyBase()
	bad.VCs = 0
	cfgs := []network.Config{good, bad, good}
	cfgs[2].Seed = 7

	out := RunConfigs(context.Background(), 4, cfgs).Points
	if len(out) != 3 {
		t.Fatalf("got %d results", len(out))
	}
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("valid configs errored: %v, %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, network.ErrInvalidConfig) {
		t.Fatalf("invalid config error = %v", out[1].Err)
	}
	if out[0].Reps[0].Results.Delivered == 0 || out[2].Reps[0].Results.Delivered == 0 {
		t.Fatal("valid configs delivered nothing")
	}
	// Distinct seeds must give distinct runs (order preserved).
	if reflect.DeepEqual(out[0].Reps[0].Results, out[2].Reps[0].Results) {
		t.Fatal("different seeds produced identical results — ordering broken?")
	}
	// Each config runs with its own seed, exactly as a direct run would:
	// the paper figures' reproducibility rests on this.
	for _, i := range []int{0, 2} {
		if want := network.New(cfgs[i]).Run(); !reflect.DeepEqual(out[i].Reps[0].Results, want) {
			t.Errorf("config %d: RunConfigs result differs from network.New(cfg).Run()", i)
		}
	}
}

// Seed 0 is a valid seed: a config that keeps it runs, aggregates, and
// counts in the kernel totals and the row like any other.
func TestRunConfigsSeedZero(t *testing.T) {
	cfg := tinyBase()
	cfg.Seed = 0
	report := RunConfigs(context.Background(), 1, []network.Config{cfg})
	p := &report.Points[0]
	if p.Err != nil || p.Agg.Completed != 1 || p.Reps[0].Results.Delivered == 0 {
		t.Fatalf("seed 0: err %v, %d completed, %d delivered; want a completed run",
			p.Err, p.Agg.Completed, p.Reps[0].Results.Delivered)
	}
	if cycles, _ := report.KernelTotals(); cycles != p.Reps[0].Results.Cycles || cycles == 0 {
		t.Errorf("KernelTotals counted %d cycles, the run took %d", cycles, p.Reps[0].Results.Cycles)
	}
	if row := PointRowOf(p); len(row.Replicates) != 1 || row.Replicates[0].Seed != 0 {
		t.Errorf("row replicates = %+v, want the one seed-0 run", row.Replicates)
	}
}

// TestCampaignSpeedup demonstrates the multicore win: a ≥16-point grid
// must run at least twice as fast on the full pool as on one worker.
// Skipped on small machines and in -short runs (it is a benchmark in
// test clothing).
func TestCampaignSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs, have %d", runtime.NumCPU())
	}
	base := tinyBase()
	base.TotalMessages = 1_500
	base.WarmupMessages = 300
	spec := Spec{
		Base:           base,
		Routings:       []routing.Algorithm{routing.XY, routing.MinimalAdaptive},
		LinkErrorRates: []float64{0, 1e-3},
		InjectionRates: []float64{0.1, 0.15, 0.2, 0.25},
		Patterns:       []traffic.Pattern{traffic.UniformRandom},
	}

	serial := spec
	serial.Workers = 1
	t0 := time.Now()
	if _, err := Run(context.Background(), serial); err != nil {
		t.Fatal(err)
	}
	serialTime := time.Since(t0)

	parallel := spec
	parallel.Workers = 0 // GOMAXPROCS
	t1 := time.Now()
	if _, err := Run(context.Background(), parallel); err != nil {
		t.Fatal(err)
	}
	parallelTime := time.Since(t1)

	speedup := float64(serialTime) / float64(parallelTime)
	t.Logf("16-point grid: serial %v, parallel %v (%d workers) — speedup %.2fx",
		serialTime, parallelTime, runtime.GOMAXPROCS(0), speedup)
	if speedup < 2 {
		t.Errorf("speedup %.2fx < 2x (serial %v, parallel %v)", speedup, serialTime, parallelTime)
	}
}

// KernelTotals counts only replicates that ran to a result: a failed
// replicate (an invariant violation keeps its Results) and one never
// dispatched add nothing, and one that ran with seed 0 counts. nocd and
// fabric workers both report it.
func TestKernelTotalsSkipsFailedReplicates(t *testing.T) {
	rep := func(seed uint64, cycles uint64, err error) RepResult {
		rr := RepResult{Seed: seed, Err: err, Ran: true, KernelTicked: 2 * cycles, KernelSkipped: 3 * cycles, KernelEvents: 4 * cycles, KernelSharded: 5 * cycles}
		rr.Results.Cycles = cycles
		return rr
	}
	r := &Report{Points: []PointResult{
		{Reps: []RepResult{rep(1, 100, nil), rep(2, 1000, errors.New("invariant violated"))}},
		{Reps: []RepResult{rep(0, 10, nil), {}}},
	}}
	cycles, ks := r.KernelTotals()
	if want := (sim.Stats{Ticked: 220, Skipped: 330, Events: 440, Sharded: 550}); cycles != 110 || ks != want {
		t.Fatalf("KernelTotals = %d, %+v; want 110, %+v", cycles, ks, want)
	}
}

// A pool of GOMAXPROCS workers claims every core, so no run inside it
// ticks two shards — though the same configuration, run alone, does.
func TestPoolRunsNeverShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	base := network.NewConfig()
	base.WarmupMessages, base.TotalMessages = 100, 600
	alone := network.New(base)
	alone.Run()
	if alone.KernelStats().Sharded == 0 {
		t.Fatal("the configuration never shards, even alone")
	}
	report, err := Run(context.Background(), Spec{
		Base:           base,
		InjectionRates: []float64{0.1, 0.2, 0.3},
		Seeds:          2,
		Workers:        runtime.GOMAXPROCS(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range report.Points {
		for _, rr := range p.Reps {
			if rr.Err != nil {
				t.Fatal(rr.Err)
			}
			if rr.KernelSharded != 0 {
				t.Errorf("point %d seed %d ticked %d steps as two shards inside the pool", p.Index, rr.Seed, rr.KernelSharded)
			}
		}
	}
}
