package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
)

// checkedRun builds cfg in s with a fresh invariant checker attached, runs
// it and returns its Results and their JSON, failing on any violation.
func checkedRun(t *testing.T, s *sim.Slabs, cfg Config) (Results, []byte) {
	t.Helper()
	chk := invariant.New(invariant.Config{})
	cfg.Invariants = chk
	res := NewIn(s, cfg).Run()
	for _, v := range chk.Violations() {
		t.Errorf("invariant violation: %v", v)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, js
}

// A network built in a store runs exactly as a fresh one, whatever the
// store's previous builds looked like: one store builds a sequence that
// changes mesh size, protection, routing, mortality and VC count between
// consecutive builds, each checked against New by its Results bytes. And
// no Results alias the store: those of earlier builds, kept by value,
// marshal the same after every later build has reused the slabs.
func TestNewInMatchesNew(t *testing.T) {
	mort, err := fault.ParseMortality("link:8E@300,router:21@700")
	if err != nil {
		t.Fatal(err)
	}
	point := func(w, vcs int, prot link.Protection, alg routing.Algorithm, dying bool) Config {
		cfg := NewConfig()
		cfg.Width, cfg.Height, cfg.VCs = w, w, vcs
		cfg.Protection, cfg.Routing = prot, alg
		cfg.InjectionRate = 0.15
		cfg.WarmupMessages, cfg.TotalMessages = 100, 600
		cfg.Faults.Link = 1e-2
		if dying {
			cfg.Faults.Mortality = mort
		}
		return cfg
	}
	seq := []Config{
		point(4, 3, link.HBH, routing.XY, false),
		point(8, 4, link.FEC, routing.FaultAdaptive, true),
		point(6, 2, link.E2E, routing.XY, false),
		point(6, 3, link.HBH, routing.FaultAdaptive, true),
		point(8, 1, link.FEC, routing.XY, false),
		point(4, 6, link.E2E, routing.FaultAdaptive, false),
		point(6, 3, link.FEC, routing.FaultAdaptive, true),
	}
	var s sim.Slabs
	kept := make([]Results, len(seq))
	want := make([][]byte, len(seq))
	for i, cfg := range seq {
		name := fmt.Sprintf("%d:%dx%d/%dvc/%v/%v/mortality=%v", i, cfg.Width, cfg.Height, cfg.VCs,
			cfg.Protection, cfg.Routing, cfg.Faults.Mortality.Enabled())
		fresh, _ := checkedRun(t, nil, cfg)
		var got []byte
		kept[i], got = checkedRun(t, &s, cfg)
		if want[i], err = json.Marshal(fresh); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: Results built in a store differ from New's:\nstore: %s\nnew:   %s", name, got, want[i])
		}
	}
	for i := range kept {
		got, err := json.Marshal(kept[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("build %d's Results changed when the store built again:\nnow:  %s\nwant: %s", i, got, want[i])
		}
	}
}

// gridPointConfig is one point of the campaign_grid workload's grid: a
// 6x6 mesh under fault-adaptive routing and FEC, links failing at 1e-2,
// a link and a router dying mid-run.
func gridPointConfig() Config {
	mort, err := fault.ParseMortality("link:8E@300,router:21@700")
	if err != nil {
		panic(err)
	}
	cfg := NewConfig()
	cfg.Width, cfg.Height = 6, 6
	cfg.InjectionRate = 0.15
	cfg.WarmupMessages, cfg.TotalMessages = 300, 1500
	cfg.Routing = routing.FaultAdaptive
	cfg.Protection = link.FEC
	cfg.Faults.Link = 1e-2
	cfg.Faults.Mortality = mort
	return cfg
}
