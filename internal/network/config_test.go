package network

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/router"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
	"ftnoc/internal/traffic"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := NewConfig()
	cfg.Width = 6
	cfg.Faults.Link = 1e-3
	cfg.Faults.Mortality = fault.Mortality{
		Links:   []fault.LinkDeath{{From: 5, Dir: topology.East, Cycle: 0}},
		Routers: []fault.RouterDeath{{Node: 10, Cycle: 200}},
	}
	cfg.TracePIDs = []uint64{7}
	cfg.DuplicateRetrans = true

	var b strings.Builder
	if err := cfg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 6 || got.Faults.Link != 1e-3 || !got.DuplicateRetrans {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if !reflect.DeepEqual(got.Faults.Mortality, cfg.Faults.Mortality) {
		t.Fatalf("mortality schedule lost: %+v", got.Faults.Mortality)
	}
	if len(got.TracePIDs) != 1 || got.TracePIDs[0] != 7 {
		t.Fatalf("trace pids lost: %+v", got.TracePIDs)
	}
}

func TestReadConfigPartialKeepsDefaults(t *testing.T) {
	got, err := ReadConfig(strings.NewReader(`{"Width": 4, "Height": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 4 || got.Height != 4 {
		t.Fatal("overrides not applied")
	}
	// Everything else keeps paper defaults.
	if got.VCs != 3 || got.PacketSize != 4 || got.InjectionRate != 0.25 || !got.ACEnabled {
		t.Fatalf("defaults lost: %+v", got)
	}
}

func TestReadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := ReadConfig(strings.NewReader(`{"Widht": 4}`)); err == nil {
		t.Fatal("typo field accepted")
	}
	// A boot-time fault is a Faults.Mortality death at cycle 0; a document
	// naming the removed HardFaults list must fail loudly rather than run
	// fault-free.
	_, err := ReadConfig(strings.NewReader(`{"HardFaults":[{"From":5,"Dir":2}]}`))
	if err == nil || !strings.Contains(err.Error(), "HardFaults") {
		t.Fatalf("HardFaults document: err = %v, want an unknown-field error naming it", err)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Width = 1; c.Height = 1 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.PacketSize = 1 },
		func(c *Config) { c.PipelineDepth = 0 },
		func(c *Config) { c.InjectionRate = 1.5 },
		func(c *Config) { c.TotalMessages = 0 },
		func(c *Config) { c.TotalMessages = 5; c.WarmupMessages = 10 },
	}
	for i, mutate := range bad {
		cfg := NewConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// Validate must refuse what New would panic on — out-of-range router
// sizes, unknown topology kinds, routing algorithms, traffic patterns
// and protection schemes (the policy table has no row past FEC) — and
// what would size every router's buffers from an untrusted number;
// a configuration at the bound must build.
func TestValidateResourceBounds(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"VCs at router.MaxVCs", func(c *Config) { c.VCs = router.MaxVCs }, true},
		{"VCs past router.MaxVCs", func(c *Config) { c.VCs = router.MaxVCs + 1 }, false},
		{"BufDepth at router.MaxBufDepth", func(c *Config) { c.BufDepth = router.MaxBufDepth }, true},
		{"BufDepth past router.MaxBufDepth", func(c *Config) { c.BufDepth = router.MaxBufDepth + 1 }, false},
		{"TopologyKind zero (mesh)", func(c *Config) { c.TopologyKind = 0 }, true},
		{"TopologyKind past Torus", func(c *Config) { c.TopologyKind = topology.Torus + 1 }, false},
		{"Routing FaultAdaptive", func(c *Config) { c.Routing = routing.FaultAdaptive }, true},
		{"Routing zero", func(c *Config) { c.Routing = 0 }, false},
		{"Routing past FaultAdaptive", func(c *Config) { c.Routing = routing.FaultAdaptive + 1 }, false},
		{"Pattern Hotspot", func(c *Config) { c.Pattern = traffic.Hotspot }, true},
		{"Pattern past Hotspot", func(c *Config) { c.Pattern = traffic.Hotspot + 1 }, false},
		{"Protection zero (HBH)", func(c *Config) { c.Protection = 0 }, true},
		{"Protection FEC", func(c *Config) { c.Protection = link.FEC }, true},
		{"Protection past FEC", func(c *Config) { c.Protection = link.FEC + 1 }, false},
		{"nodes past maxNodes", func(c *Config) { c.Width, c.Height = 256, 257 }, false},
		// Width*Height wraps to 4 nodes: each dimension is bounded first.
		{"Width*Height overflowing to 4", func(c *Config) { c.Width, c.Height = 1<<62+1, 4 }, false},
		{"Height*Width overflowing to 4", func(c *Config) { c.Width, c.Height = 4, 1<<62+1 }, false},
	}
	for _, tc := range cases {
		cfg := NewConfig()
		cfg.Width, cfg.Height = 2, 1
		tc.set(&cfg)
		err := cfg.Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		case tc.ok:
			New(cfg) // must not panic
		case !errors.Is(err, ErrInvalidConfig):
			t.Errorf("%s: Validate() = %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

// Validate checks a mortality schedule's links by the topology's
// arithmetic rather than by building one, so it allocates nothing on a
// valid config: campaign.Run validates every point before dispatch and
// New validates again.
func TestValidateAllocatesNothing(t *testing.T) {
	mort, err := fault.ParseMortality("link:8E@300,router:21@700,hazard:1e-4@100-900")
	if err != nil {
		t.Fatal(err)
	}
	degraded := NewConfig()
	degraded.Width, degraded.Height = 6, 6
	degraded.Routing = routing.FaultAdaptive
	degraded.Protection = link.FEC
	degraded.Faults.Link = 1e-2
	degraded.Faults.Mortality = mort
	torus := degraded
	torus.TopologyKind = topology.Torus
	for name, cfg := range map[string]Config{"default": NewConfig(), "6x6 mortality": degraded, "6x6 torus mortality": torus} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(10, func() { _ = cfg.Validate() }); n != 0 {
			t.Errorf("%s: Validate makes %v allocations, want 0", name, n)
		}
	}
}

func TestShifterDepthOption(t *testing.T) {
	cfg := NewConfig()
	if cfg.shifterDepth() != 3 {
		t.Fatalf("default shifter depth %d, want 3", cfg.shifterDepth())
	}
	cfg.DuplicateRetrans = true
	if cfg.shifterDepth() != 6 {
		t.Fatalf("duplicate shifter depth %d, want 6", cfg.shifterDepth())
	}
}

func TestResultsString(t *testing.T) {
	if (Results{}).String() == "" {
		t.Fatal("empty Results.String")
	}
}
