package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
)

// bytesOf returns the bytes fn allocates. The count is the process's, so
// a collection first keeps earlier garbage's sweeping out of it.
func bytesOf(fn func()) uint64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// A process's construction memory is set by its cores, not its
// campaigns: every replicate builds in a slab store from sim's free list
// and its run gives the store back, so once one campaign has built a
// shape, an 8-point grid of that shape on one worker allocates less than
// a single fresh build of it, one in an empty store (a store per campaign
// spent about one fresh build per worker). A rebuild in a store allocates
// under 2% of a fresh build's bytes.
func TestCampaignMemoryIndependentOfPoints(t *testing.T) {
	// One P keeps the runtime's own thread start-up out of the counts
	// (see network.TestRunMemoryIndependentOfLength).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := network.NewConfig()
	base.Width, base.Height = 6, 6
	base.InjectionRate = 0.15
	base.WarmupMessages, base.TotalMessages = 100, 500
	grid := func(points int) Spec {
		spec := Spec{Base: base, Workers: 1}
		for i := 0; i < points; i++ {
			spec.LinkErrorRates = append(spec.LinkErrorRates, 1e-6*float64(i+1))
		}
		return spec
	}
	run := func(spec Spec) func() {
		return func() {
			if _, err := Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(grid(1))() // the warm-up: leaves a 6x6 store on the free list
	eight := bytesOf(run(grid(8)))
	fresh := bytesOf(func() { network.NewIn(new(sim.Slabs), base) })
	t.Logf("8-point grid after a warm-up: %d bytes; one fresh 6x6 build: %d bytes", eight, fresh)
	if eight >= fresh {
		t.Errorf("an 8-point grid after a warm-up allocates %d bytes, not under one fresh build's %d", eight, fresh)
	}

	cfg := base
	cfg.Routing = routing.FaultAdaptive
	var s sim.Slabs
	network.NewIn(&s, cfg)
	fresh = bytesOf(func() { network.NewIn(new(sim.Slabs), cfg) })
	reused := bytesOf(func() { network.NewIn(&s, cfg) })
	t.Logf("6x6 fault-adaptive build: %d bytes fresh, %d rebuilt in a store", fresh, reused)
	if reused*50 >= fresh {
		t.Errorf("a rebuild in a store allocates %d bytes against a fresh build's %d: not under 2%%", reused, fresh)
	}
}

// Slab stores outlive campaigns, so nothing a report keeps may alias a
// slab: after grid A, grids B and C of other shapes, VCs and protections
// build in the stores A returned, two campaigns at once, and A's report
// must still encode byte-identically while B and C match their serial
// runs.
func TestReportsSurviveStoreReuse(t *testing.T) {
	// Both helpers also run on goroutines the test starts, so they report
	// with t.Error.
	encode := func(r *Report) []byte {
		var buf bytes.Buffer
		if err := r.WriteNDJSON(&buf); err != nil {
			t.Error(err)
		}
		enc := json.NewEncoder(&buf)
		for i := range r.Points {
			for j := range r.Points[i].Reps {
				if err := enc.Encode(&r.Points[i].Reps[j].Results); err != nil {
					t.Error(err)
				}
			}
		}
		return buf.Bytes()
	}
	run := func(spec Spec) *Report {
		r, err := Run(context.Background(), spec)
		if err != nil {
			t.Error(err)
			return &Report{}
		}
		return r
	}

	a := tinyBase()
	a.Width, a.Height = 6, 6
	a.Routing = routing.FaultAdaptive
	specA := Spec{
		Base:               a,
		Protections:        []link.Protection{link.HBH, link.FEC},
		LinkErrorRates:     []float64{1e-3},
		MortalitySchedules: []fault.Mortality{{}, mustMortality(t, "link:8E@300,router:21@700")},
		Seeds:              2,
		Workers:            2,
		Invariants:         true,
	}
	b := tinyBase()
	b.VCs = 5
	specB := Spec{Base: b, Protections: []link.Protection{link.E2E}, LinkErrorRates: []float64{1e-3, 1e-2}, Seeds: 2, Workers: 2, Invariants: true}
	c := tinyBase()
	c.Width, c.Height = 8, 8
	c.Routing = routing.XY
	specC := Spec{Base: c, InjectionRates: []float64{0.05, 0.1}, Workers: 2, Invariants: true}

	reportA := run(specA)
	wantA := encode(reportA)
	var gotB, gotC []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotB = encode(run(specB)) }()
	go func() { defer wg.Done(); gotC = encode(run(specC)) }()
	wg.Wait()

	if got := encode(reportA); !bytes.Equal(got, wantA) {
		t.Errorf("grid A's report changed after later campaigns built in its stores:\nbefore: %s\nafter:  %s", wantA, got)
	}
	if want := encode(run(specB)); !bytes.Equal(gotB, want) {
		t.Errorf("grid B run beside grid C differs from its serial run:\nconcurrent: %s\nserial:     %s", gotB, want)
	}
	if want := encode(run(specC)); !bytes.Equal(gotC, want) {
		t.Errorf("grid C run beside grid B differs from its serial run:\nconcurrent: %s\nserial:     %s", gotC, want)
	}
	for _, p := range reportA.Points {
		if p.Err != nil {
			t.Errorf("grid A point %d failed: %v", p.Index, p.Err)
		}
	}
}
