package campaign

import (
	"errors"
	"testing"

	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/routing"
)

// wireSpec is a small multi-axis spec for wire-form and shard-hash
// tests.
func wireSpec() Spec {
	return Spec{
		Base:           network.NewConfig(),
		Sizes:          []Size{{Width: 4, Height: 4}},
		Routings:       []routing.Algorithm{routing.XY, routing.WestFirst},
		Protections:    []link.Protection{link.HBH},
		InjectionRates: []float64{0.1, 0.2},
		Seeds:          2,
	}
}

// TestWireJSONPreservesHash is the shipping law behind the fabric: the
// spec document a coordinator sends to workers decodes to a spec with
// the same canonical hash, so both sides address the same results.
func TestWireJSONPreservesHash(t *testing.T) {
	spec := wireSpec()
	h1, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := spec.WireJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(wire)
	if err != nil {
		t.Fatalf("%v\nwire: %s", err, wire)
	}
	h2, err := back.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash mismatch\nwire: %s", wire)
	}
}

func TestRangeHash(t *testing.T) {
	spec := wireSpec() // 4 points
	rangeHash := func(s Spec, lo, hi int) (string, error) {
		return HashRange(s.Points(), s.Seeds, lo, hi)
	}
	whole1, err := rangeHash(spec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	whole2, err := rangeHash(spec, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if whole1 != whole2 {
		t.Fatal("HashRange not deterministic")
	}
	lo, err := rangeHash(spec, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := rangeHash(spec, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if lo == hi || lo == whole1 || hi == whole1 {
		t.Fatal("distinct ranges must hash distinctly")
	}

	// The same configs at different grid positions are different shards:
	// row point numbers and derived seeds depend on the global index.
	sym := spec
	sym.InjectionRates = []float64{0.1, 0.1}
	a, err := rangeHash(sym, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rangeHash(sym, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("identical configs at different grid indices must hash differently")
	}

	for _, r := range [][2]int{{-1, 2}, {0, 5}, {2, 2}, {3, 1}} {
		if _, err := rangeHash(spec, r[0], r[1]); !errors.Is(err, network.ErrInvalidConfig) {
			t.Errorf("HashRange(%d,%d): err = %v, want ErrInvalidConfig", r[0], r[1], err)
		}
	}
}
