package campaign

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
	"ftnoc/internal/traffic"
)

func TestParseSpec(t *testing.T) {
	doc := `{
		"base": {"Width": 4, "Height": 4, "TotalMessages": 500, "WarmupMessages": 100, "Seed": 9},
		"sizes": ["4x4", {"width": 6, "height": 6}],
		"topologies": ["mesh", "torus"],
		"routings": ["xy", "adaptive"],
		"protections": ["hbh", "e2e"],
		"patterns": ["NR", "tn"],
		"link_error_rates": [0, 0.001],
		"injection_rates": [0.1, 0.2],
		"seeds": 3,
		"workers": 2
	}`
	spec, err := ParseSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Base.Width != 4 || spec.Base.TotalMessages != 500 || spec.Base.Seed != 9 {
		t.Fatalf("base not applied: %+v", spec.Base)
	}
	if spec.Base.VCs != network.NewConfig().VCs {
		t.Fatalf("base should keep NewConfig defaults for absent fields, VCs = %d", spec.Base.VCs)
	}
	if len(spec.Sizes) != 2 || spec.Sizes[0] != (Size{4, 4}) || spec.Sizes[1] != (Size{6, 6}) {
		t.Fatalf("sizes = %+v", spec.Sizes)
	}
	if len(spec.Topologies) != 2 || spec.Topologies[1] != topology.Torus {
		t.Fatalf("topologies = %+v", spec.Topologies)
	}
	if len(spec.Routings) != 2 || spec.Routings[1] != routing.MinimalAdaptive {
		t.Fatalf("routings = %+v", spec.Routings)
	}
	if len(spec.Protections) != 2 || spec.Protections[1] != link.E2E {
		t.Fatalf("protections = %+v", spec.Protections)
	}
	if len(spec.Patterns) != 2 || spec.Patterns[1] != traffic.Tornado {
		t.Fatalf("patterns = %+v", spec.Patterns)
	}
	if spec.Seeds != 3 || spec.Workers != 2 {
		t.Fatalf("seeds/workers = %d/%d", spec.Seeds, spec.Workers)
	}
	if got := len(spec.Points()); got != 2*2*2*2*2*2*2 {
		t.Fatalf("grid size = %d, want 128", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	// doc, and a substring the one-line error must contain. The removed
	// scheduler fields are plain unknown input: rejected by name, never
	// ignored.
	cases := map[string][2]string{
		"unknown top-level field":  {`{"bogus": 1}`, "bogus"},
		"unknown base field":       {`{"base": {"Bogus": 1}}`, "Bogus"},
		"unknown routing":          {`{"routings": ["zigzag"]}`, "zigzag"},
		"unknown pattern":          {`{"patterns": ["XX"]}`, "XX"},
		"unknown protection":       {`{"protections": ["tmr"]}`, "tmr"},
		"unknown topology":         {`{"topologies": ["ring"]}`, "ring"},
		"bad size string":          {`{"sizes": ["4by4"]}`, "4by4"},
		"unknown size field":       {`{"sizes": [{"width": 4, "depth": 4}]}`, "depth"},
		"removed kernel selection": {`{"kernel":"event"}`, `unknown field "kernel"`},
		"removed kernel_workers":   {`{"kernel_workers": 2}`, `unknown field "kernel_workers"`},
	}
	for name, c := range cases {
		_, err := ParseSpec([]byte(c[0]))
		if err == nil {
			t.Errorf("%s: ParseSpec accepted %s", name, c[0])
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c[1]) || strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q is not one line mentioning %q", name, msg, c[1])
		}
	}
	// An empty document is a valid single-point spec over the defaults.
	spec, err := ParseSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Points()) != 1 {
		t.Fatalf("empty doc grid = %d points", len(spec.Points()))
	}
}

func TestSpecCanonicalHash(t *testing.T) {
	base := tinyBase()
	spec := Spec{Base: base, InjectionRates: []float64{0.1, 0.2}, Seeds: 2}

	h1, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := spec.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("hash unstable or malformed: %q vs %q", h1, h2)
	}

	// Scheduling and observability must not contribute.
	withWorkers := spec
	withWorkers.Workers = 7
	withWorkers.Progress = new(countingSink)
	if h, _ := withWorkers.CanonicalHash(); h != h1 {
		t.Fatal("Workers/Progress changed the canonical hash")
	}

	// Anything that changes the simulated work must contribute.
	for name, mutate := range map[string]func(*Spec){
		"seed":      func(s *Spec) { s.Base.Seed++ },
		"reps":      func(s *Spec) { s.Seeds++ },
		"axis":      func(s *Spec) { s.InjectionRates = []float64{0.1} },
		"base conf": func(s *Spec) { s.Base.VCs++ },
	} {
		m := spec
		mutate(&m)
		if h, err := m.CanonicalHash(); err != nil {
			t.Fatalf("%s: %v", name, err)
		} else if h == h1 {
			t.Fatalf("%s change did not alter the canonical hash", name)
		}
	}

	// Seeds=0 and Seeds=1 are the same campaign (one replicate).
	zero, one := spec, spec
	zero.Seeds, one.Seeds = 0, 1
	hz, _ := zero.CanonicalHash()
	ho, _ := one.CanonicalHash()
	if hz != ho {
		t.Fatal("Seeds=0 and Seeds=1 hash differently")
	}

	// Invalid points make the spec unhashable.
	bad := spec
	bad.InjectionRates = []float64{1.5}
	if _, err := bad.CanonicalHash(); !errors.Is(err, network.ErrInvalidConfig) {
		t.Fatalf("invalid point hash error = %v", err)
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	spec := Spec{Base: tinyBase(), Workers: -1}
	_, err := Run(context.Background(), spec)
	if err == nil {
		t.Fatal("Run accepted Workers = -1")
	}
	if !errors.Is(err, network.ErrInvalidConfig) {
		t.Fatalf("error does not wrap ErrInvalidConfig: %v", err)
	}
	if !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("error does not name Workers: %v", err)
	}
}
