package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// maxGridPointAllocs bounds what one point of the campaign_grid spec
// shape allocates when the grid reruns in warm stores, its share of
// parsing the spec, running the pool and encoding the table included.
// Its own objects are its Results' three heap parts, the network struct
// and its topology; every replicate buffer comes from a worker's store.
const maxGridPointAllocs = 16

// gridDoc is the campaign_grid benchmark workload's spec document: 2
// protections x 2 link error rates x 2 mortality schedules on a 6x6 mesh
// under fault-adaptive routing, one replicate each, two workers.
func gridDoc(seed uint64) []byte {
	return fmt.Appendf(nil, `{"base":{"Width":6,"Height":6,"InjectionRate":0.15,"WarmupMessages":300,"TotalMessages":1500,"Seed":%d},`+
		`"routings":["fault-adaptive"],"protections":["hbh","fec"],"link_error_rates":[1e-5,1e-2],`+
		`"mortality_schedules":["none","link:8E@300,router:21@700"],"seeds":1,"workers":2}`, seed)
}

// gridPoints is the number of points gridDoc expands to.
const gridPoints = 8

// runGrid is one campaign_grid op: ParseSpec, Run, WriteNDJSON into w.
func runGrid(tb testing.TB, doc []byte, w io.Writer) {
	spec, err := ParseSpec(doc)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := Run(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	if err := r.WriteNDJSON(w); err != nil {
		tb.Fatal(err)
	}
}

// A campaign point allocates only what its caller keeps: rerun in warm
// stores, the campaign_grid spec shape makes at most maxGridPointAllocs
// allocations per point, its rows unchanged. The two workers' stores stay
// on the free list between ops only while it keeps two (GOMAXPROCS 2),
// and the runs warm the stores up to every point shape first. The least
// of three reruns is bounded, which keeps the runtime's own occasional
// allocations (a goroutine, a type-assertion cache) out of it; under
// -race the count is only logged (raceEnabled).
func TestGridAllocatesOnlyRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	doc := gridDoc(3)
	var want bytes.Buffer
	runGrid(t, doc, &want)
	for i := 0; i < 2; i++ {
		runGrid(t, doc, io.Discard)
	}
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var got bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		runGrid(t, doc, &got)
		runtime.ReadMemStats(&m1)
		least = min(least, m1.Mallocs-m0.Mallocs)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("rerun %d's table differs from the first run's:\nfirst: %s\nrerun: %s", i, want.Bytes(), got.Bytes())
		}
	}
	perPoint := float64(least) / gridPoints
	t.Logf("%.1f allocations per point", perPoint)
	if perPoint > maxGridPointAllocs && !raceEnabled {
		t.Errorf("a grid rerun in warm stores makes %.1f allocations per point, want <= %d", perPoint, maxGridPointAllocs)
	}
}

// BenchmarkGridReused times the campaign_grid op shape in warm stores,
// a fresh seed each op as the workload's variants have; allocs/point is
// what scripts/bench.sh holds to maxGridPointAllocs. It runs at
// GOMAXPROCS 2, as TestGridAllocatesOnlyRows does, so both workers'
// stores stay on the free list whatever the host's core count.
func BenchmarkGridReused(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for seed := uint64(1); seed <= 3; seed++ {
		runGrid(b, gridDoc(seed), io.Discard)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runGrid(b, gridDoc(uint64(i+4)), io.Discard)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N*gridPoints), "allocs/point")
}
