package network

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
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

// Lone runs share sim's free list, so nothing a run hands back may alias
// a slab, and a New after Run reads reused memory only through misuse,
// which panics by name. Run A, 6x6 fault-adaptive with links and a router
// dying, gives its store back; runs B and C, of other shapes, VCs and
// protections, then build from the list at once, one of them in A's
// store. A's Results must still marshal byte-identically, B's and C's
// must equal their runs in a private store, and A must still answer
// KernelStats and Topology while Routers, Snapshot, Kernel and a second
// Run panic. A run that panics gives its store back too.
func TestLoneRunsSurviveStoreReuse(t *testing.T) {
	// pooled builds cfg with New and a fresh invariant checker, and returns
	// the store it took and a run that reports its Results as JSON. Both
	// also run on goroutines the test starts, so they report with t.Error.
	pooled := func(cfg Config) (*sim.Slabs, func() []byte) {
		chk := invariant.New(invariant.Config{})
		cfg.Invariants = chk
		n := New(cfg)
		return n.slabs, func() []byte {
			js, err := json.Marshal(n.Run())
			if err != nil {
				t.Error(err)
			}
			for _, v := range chk.Violations() {
				t.Errorf("invariant violation: %v", v)
			}
			return js
		}
	}

	cfgA := gridPointConfig()
	chkA := invariant.New(invariant.Config{})
	cfgA.Invariants = chkA
	a := New(cfgA)
	storeA := a.slabs
	resA := a.Run()
	wantA, err := json.Marshal(resA)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range chkA.Violations() {
		t.Errorf("run A: invariant violation: %v", v)
	}

	b := NewConfig()
	b.Width, b.Height, b.VCs = 4, 4, 5
	b.Protection = link.E2E
	b.InjectionRate = 0.15
	b.WarmupMessages, b.TotalMessages = 100, 600
	b.Faults.Link = 1e-3
	c := NewConfig()
	c.Width, c.Height, c.VCs = 8, 8, 2
	c.WarmupMessages, c.TotalMessages = 100, 600
	c.Faults.Link = 1e-3
	var gotB, gotC []byte
	var storeB, storeC *sim.Slabs
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var run func() []byte
		storeB, run = pooled(b)
		gotB = run()
	}()
	go func() {
		defer wg.Done()
		var run func() []byte
		storeC, run = pooled(c)
		gotC = run()
	}()
	wg.Wait()
	if storeB != storeA && storeC != storeA {
		t.Error("neither B nor C built in the store A gave back: the test proves nothing")
	}

	if got, err := json.Marshal(resA); err != nil || !bytes.Equal(got, wantA) {
		t.Errorf("run A's Results changed after later runs built in its store (%v):\nbefore: %s\nafter:  %s", err, wantA, got)
	}
	for _, r := range []struct {
		name string
		cfg  Config
		got  []byte
	}{{"B", b, gotB}, {"C", c, gotC}} {
		if _, want := checkedRun(t, new(sim.Slabs), r.cfg); !bytes.Equal(r.got, want) {
			t.Errorf("run %s from the free list differs from its run in a private store:\nlist:    %s\nprivate: %s", r.name, r.got, want)
		}
	}

	if ks := a.KernelStats(); ks.Ticked == 0 || a.Topology().Nodes() != 36 {
		t.Errorf("after Run: kernel stats %+v, %d nodes", ks, a.Topology().Nodes())
	}
	for call, fn := range map[string]func(){
		"Routers":  func() { a.Routers() },
		"Snapshot": func() { a.Snapshot() },
		"Kernel":   func() { a.Kernel() },
		"Run":      func() { a.Run() },
	} {
		if got, want := panicOf(fn), "network: "+call+" after Run: the network's slabs went back to the free list"; got != want {
			t.Errorf("%s after Run: panic %v, want %q", call, got, want)
		}
	}

	d := NewConfig()
	d.Width, d.Height = 4, 4
	n := New(d)
	n.chanAt[0*int(topology.NumPorts)+int(topology.East)].SetCorruptor(&panicAfter{k: 10})
	if p := panicOf(func() { n.Run() }); p != "boom" {
		t.Fatalf("recovered %v, want the link's panic", p)
	}
	if p := panicOf(func() { n.Routers() }); p == nil {
		t.Error("a run that panicked kept its store")
	}
}

// panicOf calls fn and returns what it panicked with, nil if nothing.
func panicOf(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
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

// One large run does not inflate the small runs after it: a store that
// ran a 24x24 mesh and then a 4x4 one keeps, between builds, within 2x
// of the slab bytes a store that ran 4x4 meshes only keeps. The store's
// own count (sim.Slabs.Bytes) is exact and the runs are seeded, so the
// reading does not move with the garbage collector or other tests.
func TestStoreShrinksAfterLargeRun(t *testing.T) {
	small := NewConfig()
	small.Width, small.Height = 4, 4
	small.WarmupMessages, small.TotalMessages = 200, 1000
	large := small
	large.Width, large.Height = 24, 24
	large.InjectionRate = 0.02
	// kept runs cfgs in a private store and returns the slab bytes it
	// keeps once it has begun its next build: cleared, and released what
	// it would not reuse.
	kept := func(cfgs ...Config) int {
		s := new(sim.Slabs)
		for _, cfg := range cfgs {
			NewIn(s, cfg).Run()
		}
		s.Begin()
		return s.Bytes()
	}
	only := kept(small, small, small)
	after := kept(small, small, small, large, small)
	t.Logf("4x4 runs only: %d KiB kept; after a 24x24 run: %d KiB", only>>10, after>>10)
	if after > 2*only {
		t.Errorf("a 4x4 run after a 24x24 one leaves its store holding %d KiB, over 2x the %d KiB of 4x4 runs alone", after>>10, only>>10)
	}
}
