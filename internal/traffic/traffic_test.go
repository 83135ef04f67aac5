package traffic

import (
	"math"
	"testing"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

func mesh8() *topology.Topology { return topology.New(topology.Mesh, 8, 8) }

func TestInjectionRateAccuracy(t *testing.T) {
	const rate, size, cycles = 0.25, 4, 100_000
	src := NewSource(0, mesh8(), UniformRandom, rate, size, sim.NewRNG(1))
	injected := 0
	for i := 0; i < cycles; i++ {
		if _, ok := src.Tick(); ok {
			injected++
		}
	}
	want := rate / size * cycles
	if math.Abs(float64(injected)-want) > want*0.02 {
		t.Fatalf("injected %d packets over %d cycles, want ~%.0f", injected, cycles, want)
	}
}

func TestInjectionIsRegular(t *testing.T) {
	// The paper specifies regular intervals: with rate 0.2 and 4-flit
	// packets, packets should arrive every 20 cycles exactly (after the
	// random phase).
	src := NewSource(3, mesh8(), UniformRandom, 0.2, 4, sim.NewRNG(7))
	var times []int
	for i := 0; i < 500; i++ {
		if _, ok := src.Tick(); ok {
			times = append(times, i)
		}
	}
	if len(times) < 3 {
		t.Fatalf("too few injections: %v", times)
	}
	for i := 2; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap != 20 {
			t.Fatalf("irregular gap %d at injection %d (times %v)", gap, i, times[:i+1])
		}
	}
}

func TestZeroRateNeverInjects(t *testing.T) {
	src := NewSource(0, mesh8(), UniformRandom, 0, 4, sim.NewRNG(1))
	for i := 0; i < 1000; i++ {
		if _, ok := src.Tick(); ok {
			t.Fatal("zero-rate source injected")
		}
	}
}

func TestUniformRandomDestinations(t *testing.T) {
	src := NewSource(10, mesh8(), UniformRandom, 1, 2, sim.NewRNG(3))
	counts := map[flit.NodeID]int{}
	for i := 0; i < 63_000; i++ {
		if d, ok := src.Tick(); ok {
			if d == 10 {
				t.Fatal("uniform random chose self")
			}
			counts[d]++
		}
	}
	if len(counts) != 63 {
		t.Fatalf("uniform random hit %d destinations, want 63", len(counts))
	}
	for d, c := range counts {
		if c < 350 || c > 650 {
			t.Errorf("destination %d drawn %d times; badly skewed", d, c)
		}
	}
}

func TestBitComplement(t *testing.T) {
	topo := mesh8()
	cases := map[flit.NodeID]flit.NodeID{0: 63, 63: 0, 1: 62, 21: 42}
	for src, want := range cases {
		s := NewSource(src, topo, BitComplement, 1, 2, sim.NewRNG(1))
		d, ok := s.Tick()
		if !ok || d != want {
			t.Errorf("BC from %d = %d,%v, want %d", src, d, ok, want)
		}
	}
}

func TestTornado(t *testing.T) {
	topo := mesh8()
	// Tornado on an 8-wide mesh: dx = (x + 3) mod 8, same row.
	s := NewSource(0, topo, Tornado, 1, 2, sim.NewRNG(1))
	if d, ok := s.Tick(); !ok || d != 3 {
		t.Errorf("TN from 0 = %d,%v, want 3", d, ok)
	}
	s = NewSource(9, topo, Tornado, 1, 2, sim.NewRNG(1)) // (1,1) -> (4,1) = 12
	if d, ok := s.Tick(); !ok || d != 12 {
		t.Errorf("TN from 9 = %d,%v, want 12", d, ok)
	}
}

func TestTranspose(t *testing.T) {
	topo := mesh8()
	s := NewSource(topo.IDOf(topology.Coord{X: 2, Y: 5}), topo, Transpose, 1, 2, sim.NewRNG(1))
	want := topo.IDOf(topology.Coord{X: 5, Y: 2})
	if d, ok := s.Tick(); !ok || d != want {
		t.Errorf("TP = %d,%v, want %d", d, ok, want)
	}
	// Diagonal nodes never inject.
	diag := NewSource(topo.IDOf(topology.Coord{X: 3, Y: 3}), topo, Transpose, 1, 2, sim.NewRNG(1))
	for i := 0; i < 100; i++ {
		if _, ok := diag.Tick(); ok {
			t.Fatal("diagonal transpose node injected")
		}
	}
}

func TestShuffle(t *testing.T) {
	topo := mesh8()
	// 64 nodes = 6 address bits; shuffle rotates left: 0b000001 -> 0b000010.
	s := NewSource(1, topo, Shuffle, 1, 2, sim.NewRNG(1))
	if d, ok := s.Tick(); !ok || d != 2 {
		t.Errorf("SH from 1 = %d,%v, want 2", d, ok)
	}
	// 0b100000 (32) -> 0b000001 (1).
	s = NewSource(32, topo, Shuffle, 1, 2, sim.NewRNG(1))
	if d, ok := s.Tick(); !ok || d != 1 {
		t.Errorf("SH from 32 = %d,%v, want 1", d, ok)
	}
}

func TestHotspotFraction(t *testing.T) {
	src := NewSource(10, mesh8(), Hotspot, 1, 2, sim.NewRNG(5))
	hot := 0
	n := 0
	for i := 0; i < 50_000; i++ {
		if d, ok := src.Tick(); ok {
			n++
			if d == 0 {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(n)
	// HotspotFraction plus the uniform share that happens to hit node 0.
	want := HotspotFraction + (1-HotspotFraction)/63
	if math.Abs(frac-want) > 0.02 {
		t.Fatalf("hotspot fraction %.3f, want ~%.3f", frac, want)
	}
}

func TestPatternString(t *testing.T) {
	want := map[Pattern]string{
		UniformRandom: "NR", BitComplement: "BC", Tornado: "TN",
		Transpose: "TP", Shuffle: "SH", Hotspot: "HS",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q want %q", p, p.String(), s)
		}
	}
}

func TestSourcePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewSource(0, mesh8(), UniformRandom, -1, 4, sim.NewRNG(1)) },
		func() { NewSource(0, mesh8(), UniformRandom, 0.5, 0, sim.NewRNG(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad source construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestPhaseStagger(t *testing.T) {
	// Two sources with different RNG streams must not inject on identical
	// cycles (phase staggering prevents chip-wide synchronisation).
	a := NewSource(0, mesh8(), UniformRandom, 0.2, 4, sim.NewRNG(1).Split())
	b := NewSource(1, mesh8(), UniformRandom, 0.2, 4, sim.NewRNG(2).Split())
	same, total := 0, 0
	for i := 0; i < 2000; i++ {
		_, oka := a.Tick()
		_, okb := b.Tick()
		if oka {
			total++
			if okb {
				same++
			}
		}
	}
	if total > 10 && same == total {
		t.Fatal("sources are phase-locked")
	}
}

// NewSources is NewSource for a run of nodes: source i is node first+i's
// and behaves exactly as one built alone on the same stream.
func TestNewSourcesMatchNewSource(t *testing.T) {
	topo := mesh8()
	streams := sim.NewRNG(3).SplitN(nil, 4)
	alone := sim.NewRNG(3).SplitN(nil, 4)
	srcs := NewSources(nil, 10, 4, topo, UniformRandom, 0.3, 4, func(i int) *sim.RNG { return &streams[i] })
	for i := range srcs {
		one := NewSource(flit.NodeID(10+i), topo, UniformRandom, 0.3, 4, &alone[i])
		for c := 0; c < 200; c++ {
			d1, ok1 := srcs[i].Tick()
			d2, ok2 := one.Tick()
			if d1 != d2 || ok1 != ok2 {
				t.Fatalf("source %d cycle %d: batch (%d, %v), alone (%d, %v)", i, c, d1, ok1, d2, ok2)
			}
		}
	}
}
