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
