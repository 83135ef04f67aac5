package campaign

import (
	"context"
	"runtime"
	"testing"

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

// A campaign's memory is set by its workers, not its points: a worker
// builds every replicate after its first in the slabs the previous one
// left, so on one worker an 8-point grid of same-shape networks allocates
// under 1.25x the bytes of a 2-point grid (building each network afresh
// made it 4x). A rebuild in a store allocates under 2% of a fresh build's
// bytes.
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
	run(grid(1))() // whatever the process initialises once
	two, eight := bytesOf(run(grid(2))), bytesOf(run(grid(8)))
	t.Logf("2 points: %d bytes; 8 points: %d bytes (%.2fx)", two, eight, float64(eight)/float64(two))
	if eight*4 >= two*5 {
		t.Errorf("an 8-point grid allocates %d bytes against a 2-point grid's %d: not under 1.25x", eight, two)
	}

	cfg := base
	cfg.Routing = routing.FaultAdaptive
	var s sim.Slabs
	network.NewIn(&s, cfg)
	fresh := bytesOf(func() { network.New(cfg) })
	reused := bytesOf(func() { network.NewIn(&s, cfg) })
	t.Logf("6x6 build: %d bytes fresh, %d rebuilt in a store", fresh, reused)
	if reused*50 >= fresh {
		t.Errorf("a rebuild in a store allocates %d bytes against a fresh build's %d: not under 2%%", reused, fresh)
	}
}
