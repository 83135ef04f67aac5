package network

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func tinyRunConfig() Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.WarmupMessages = 50
	cfg.TotalMessages = 300
	cfg.MaxCycles = 100_000
	cfg.StallCycles = 30_000
	return cfg
}

func TestValidateErrors(t *testing.T) {
	if err := NewConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Width = 1; c.Height = 1 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.BufDepth = 0 },
		func(c *Config) { c.PacketSize = 1 },
		func(c *Config) { c.PipelineDepth = 5 },
		func(c *Config) { c.InjectionRate = 1.5 },
		func(c *Config) { c.InjectionRate = -0.1 },
		func(c *Config) { c.TotalMessages = 0 },
		func(c *Config) { c.TotalMessages = 5; c.WarmupMessages = 10 },
	}
	for i, mutate := range bad {
		cfg := NewConfig()
		mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("bad config %d passed Validate", i)
			continue
		}
		if !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("bad config %d: error %v does not wrap ErrInvalidConfig", i, err)
		}
	}
	// Zero-valued optional fields are valid: New fills their defaults.
	cfg := NewConfig()
	cfg.Protection = 0
	cfg.MaxCycles = 0
	cfg.StallCycles = 0
	cfg.E2ETimeout = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("optional zero fields rejected: %v", err)
	}
}

// TestRunContextMatchesRun: an uncancelled RunContext is byte-identical
// to Run.
func TestRunContextMatchesRun(t *testing.T) {
	cfg := tinyRunConfig()
	a := New(cfg).Run()
	b := New(cfg).RunContext(context.Background())
	if b.Aborted {
		t.Fatal("uncancelled RunContext marked aborted")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("RunContext diverged from Run:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunContextPreCancelled: an already-cancelled context aborts at the
// very first check — within one AbortCheckInterval of cycle zero.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(tinyRunConfig()).RunContext(ctx)
	if !res.Aborted {
		t.Fatal("pre-cancelled run not aborted")
	}
	if res.Cycles > AbortCheckInterval {
		t.Fatalf("aborted after %d cycles, want <= %d", res.Cycles, AbortCheckInterval)
	}
}

// TestRunContextCancelMidRun: cancellation during a long run returns
// promptly with the partial measurements.
func TestRunContextCancelMidRun(t *testing.T) {
	cfg := tinyRunConfig()
	cfg.WarmupMessages = 0
	cfg.TotalMessages = 1_000_000 // far beyond the cancel horizon
	cfg.MaxCycles = 500_000_000
	cfg.StallCycles = 500_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res := New(cfg).RunContext(ctx)
	if !res.Aborted {
		t.Fatal("cancelled run not aborted")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Delivered == 0 {
		t.Fatal("expected partial deliveries before the abort")
	}
}
