package power

import (
	"math"
	"testing"

	"ftnoc/internal/stats"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Table 1 of the paper: the calibrated model must return the published
// synthesis numbers for the synthesized configuration.
func TestTable1Calibration(t *testing.T) {
	c := PaperRouter()
	if got := Power(c); !approx(got, 119.55, 0.01) {
		t.Errorf("router power = %.3f mW, want 119.55", got)
	}
	if got := Area(c); !approx(got, 0.374862, 1e-5) {
		t.Errorf("router area = %.6f mm², want 0.374862", got)
	}
	if got := ACPower(c); !approx(got, 2.02, 0.001) {
		t.Errorf("AC power = %.3f mW, want 2.02", got)
	}
	if got := ACArea(c); !approx(got, 0.004474, 1e-6) {
		t.Errorf("AC area = %.6f mm², want 0.004474", got)
	}
	ov := ACOverhead(c)
	if !approx(ov.PowerPct(), 1.69, 0.01) {
		t.Errorf("AC power overhead = %.2f%%, want 1.69%%", ov.PowerPct())
	}
	if !approx(ov.AreaPct(), 1.19, 0.01) {
		t.Errorf("AC area overhead = %.2f%%, want 1.19%%", ov.AreaPct())
	}
}

func TestAreaPowerMonotonicity(t *testing.T) {
	base := PaperRouter()
	bigger := []RouterConfig{
		{Ports: 5, VCs: 8, BufDepth: 4},
		{Ports: 5, VCs: 4, BufDepth: 8},
		{Ports: 7, VCs: 4, BufDepth: 4},
		{Ports: 5, VCs: 4, BufDepth: 4, RetransDepth: 3},
	}
	for _, c := range bigger {
		if Area(c) <= Area(base) {
			t.Errorf("config %+v area %.4f not > base %.4f", c, Area(c), Area(base))
		}
		if Power(c) <= Power(base) {
			t.Errorf("config %+v power %.2f not > base %.2f", c, Power(c), Power(base))
		}
	}
}

func TestACScalesWithEntries(t *testing.T) {
	small := RouterConfig{Ports: 5, VCs: 2, BufDepth: 4}
	big := RouterConfig{Ports: 5, VCs: 8, BufDepth: 4}
	if ACArea(small) >= ACArea(big) || ACPower(small) >= ACPower(big) {
		t.Error("AC cost does not scale with entry count")
	}
	if Entries(PaperRouter()) != 20 {
		t.Errorf("paper router entries = %d, want 20 (5x4)", Entries(PaperRouter()))
	}
}

func TestDuplicateRetransDoublesBufferCost(t *testing.T) {
	c := PaperRouter()
	single := RetransOverhead(c, 3)
	double := RetransOverhead(c, 6)
	if !approx(double.AddAreaMM2, 2*single.AddAreaMM2, 1e-9) {
		t.Errorf("duplicate buffers area %.6f != 2x single %.6f", double.AddAreaMM2, single.AddAreaMM2)
	}
	if !approx(double.AddPowerMW, 2*single.AddPowerMW, 1e-9) {
		t.Errorf("duplicate buffers power %.4f != 2x single %.4f", double.AddPowerMW, single.AddPowerMW)
	}
}

func TestEnergyZeroForNoEvents(t *testing.T) {
	if Energy(stats.Events{}) != 0 {
		t.Fatal("zero events produced nonzero energy")
	}
	if EnergyPerMessage(stats.Events{}, 0) != 0 {
		t.Fatal("EnergyPerMessage with zero messages not 0")
	}
}

func TestEnergyAdditive(t *testing.T) {
	a := stats.Events{LinkTraversals: 10, BufWrites: 5}
	b := stats.Events{LinkTraversals: 3, XbTraversals: 7}
	sum := stats.Events{LinkTraversals: 13, BufWrites: 5, XbTraversals: 7}
	if !approx(Energy(sum), Energy(a)+Energy(b), 1e-12) {
		t.Fatalf("energy not additive: %v vs %v", Energy(sum), Energy(a)+Energy(b))
	}
}

// A nominal message on the paper's platform must land in the 0.2-0.8 nJ
// range of Figs. 7 and 13(b): ~5.3 hops, 4 flits, plus injection/ejection.
func TestEnergyPerMessageMagnitude(t *testing.T) {
	var e stats.Events
	const flits, hops = 4, 5
	e.LinkTraversals = flits * hops
	e.LocalTraversals = flits * 2
	e.BufWrites = flits * (hops + 2)
	e.BufReads = flits * (hops + 2)
	e.XbTraversals = flits * (hops + 1)
	e.RetransWrites = flits * hops
	e.Credits = flits * (hops + 2)
	e.ECCDecodes = flits * hops
	e.VAAllocs = hops + 1
	e.SAAllocs = flits * (hops + 1) * 2
	e.RTComputes = hops + 1
	got := EnergyPerMessage(e, 1)
	if got < 0.2 || got > 0.8 {
		t.Fatalf("energy per message = %.3f nJ, want within the paper's 0.2-0.8 nJ band", got)
	}
}
