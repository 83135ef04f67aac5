package fault

import (
	"reflect"
	"testing"

	"ftnoc/internal/topology"
)

func TestMortalityStringParseRoundTrip(t *testing.T) {
	cases := []Mortality{
		{},
		{Links: []LinkDeath{{From: 3, Dir: topology.East, Cycle: 1000}}},
		{
			Links: []LinkDeath{
				{From: 3, Dir: topology.East, Cycle: 1000},
				{From: 12, Dir: topology.North, Cycle: 2500},
			},
			Routers: []RouterDeath{{Node: 9, Cycle: 4000}},
		},
		{HazardRate: 1e-4},
		{HazardRate: 2.5e-3, HazardStart: 500},
		{HazardRate: 2.5e-3, HazardStart: 500, HazardStop: 9000},
		{Routers: []RouterDeath{{Node: 0, Cycle: 1}}, HazardRate: 1e-5, HazardStop: 100},
	}
	for _, m := range cases {
		s := m.String()
		got, err := ParseMortality(s)
		if err != nil {
			t.Fatalf("ParseMortality(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip %q -> %q", s, got.String())
		}
	}
	if (Mortality{}).String() != "none" {
		t.Fatal("empty schedule should print as none")
	}
	// The canonical text is a campaign axis label and hash input: pinned,
	// a direction outside the grammar included, and built in one
	// allocation, the string.
	pinned := Mortality{
		Links: []LinkDeath{
			{From: 3, Dir: topology.East, Cycle: 1000},
			{From: 7, Dir: topology.Local, Cycle: 5},
		},
		Routers:    []RouterDeath{{Node: 9, Cycle: 4000}},
		HazardRate: 2.5e-3, HazardStart: 500, HazardStop: 9000,
	}
	if got, want := pinned.String(), "link:3E@1000,link:7(0)@5,router:9@4000,hazard:0.0025@500-9000"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { _ = pinned.String() }); n != 1 {
		t.Errorf("String makes %v allocations, want 1", n)
	}
	if m, err := ParseMortality(""); err != nil || m.Enabled() {
		t.Fatal("empty string should parse to the empty schedule")
	}
}

func TestParseMortalityRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"link:3X@100",      // bad direction
		"link:3E",          // missing cycle
		"link:E@100",       // missing node
		"router:abc@5",     // bad node
		"router:2",         // missing cycle
		"hazard:zap",       // bad rate
		"hazard:1e-3@x",    // bad start
		"hazard:1e-3@1-y",  // bad stop
		"explode:all@9000", // unknown kind
		"link",             // no colon
	} {
		if _, err := ParseMortality(s); err == nil {
			t.Errorf("ParseMortality(%q) accepted garbage", s)
		}
	}
}

// inPolicyOrder reports whether a and b (a first) respect the timeline's
// application order: cycle, then links before routers, then node and
// direction.
func inPolicyOrder(a, b Death) bool {
	switch {
	case a.Cycle != b.Cycle:
		return a.Cycle < b.Cycle
	case a.Router != b.Router:
		return !a.Router
	case a.Node != b.Node:
		return a.Node < b.Node
	}
	return a.Dir <= b.Dir
}

func TestMortalityTimeline(t *testing.T) {
	topo := topology.New(topology.Mesh, 4, 4)
	// The one hazard death of this window at seed 1, to schedule
	// explicitly as well.
	hazard := Mortality{HazardRate: 0.9, HazardStop: 1}
	drawn := hazard.Timeline(nil, topo, 1, 1000)
	if len(drawn) != 1 {
		t.Fatalf("hazard window of one cycle drew %+v", drawn)
	}
	hazard.Links = []LinkDeath{{From: drawn[0].Node, Dir: drawn[0].Dir, Cycle: 0}}
	cases := []struct {
		name string
		m    Mortality
		want []Death
	}{
		{"link before router in one cycle", Mortality{
			Links:   []LinkDeath{{From: 9, Dir: topology.East, Cycle: 0}},
			Routers: []RouterDeath{{Node: 2, Cycle: 0}},
		}, []Death{
			{Cycle: 0, Node: 9, Dir: topology.East},
			{Cycle: 0, Router: true, Node: 2},
		}},
		{"equal cycles by node then direction", Mortality{
			Links: []LinkDeath{
				{From: 5, Dir: topology.West, Cycle: 200},
				{From: 5, Dir: topology.North, Cycle: 200},
				{From: 1, Dir: topology.East, Cycle: 200},
				{From: 3, Dir: topology.South, Cycle: 100},
			},
			Routers: []RouterDeath{{Node: 9, Cycle: 200}, {Node: 2, Cycle: 200}, {Node: 7, Cycle: 50}},
		}, []Death{
			{Cycle: 50, Router: true, Node: 7},
			{Cycle: 100, Node: 3, Dir: topology.South},
			{Cycle: 200, Node: 1, Dir: topology.East},
			{Cycle: 200, Node: 5, Dir: topology.North},
			{Cycle: 200, Node: 5, Dir: topology.West},
			{Cycle: 200, Router: true, Node: 2},
			{Cycle: 200, Router: true, Node: 9},
		}},
		{"hazard draw on a scheduled link keeps both", hazard, []Death{drawn[0], drawn[0]}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.m.String()
			got := tc.m.Timeline(nil, topo, 1, 1000)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Timeline = %+v\nwant %+v", got, tc.want)
			}
			if tc.m.String() != before {
				t.Fatalf("Timeline mutated the schedule: %q -> %q", before, tc.m.String())
			}
		})
	}
}

// TestMortalityHazardTimelinePinned pins the hazard process itself —
// hazardSeedSalt, the draw order and the victim set — at values recorded
// before the timeline moved into this package. Same-seed repeatability
// alone would not notice any of them changing.
func TestMortalityHazardTimelinePinned(t *testing.T) {
	m, err := ParseMortality("hazard:0.002@100-900")
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.New(topology.Mesh, 6, 6)
	pins := map[uint64][]Death{
		1: {{Cycle: 111, Node: 7, Dir: topology.East}, {Cycle: 220, Node: 19, Dir: topology.East}},
		2: nil,
	}
	for seed, want := range pins {
		if got := m.Timeline(nil, topo, seed, 2_000_000); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: hazard timeline %+v, want %+v", seed, got, want)
		}
	}
}

// A hazard window starting at cycle 0 must still end at its stop: a first
// gap past the horizon ends the process instead of placing a death there.
func TestMortalityHazardStaysInWindow(t *testing.T) {
	topo := topology.New(topology.Mesh, 6, 6)
	m := Mortality{HazardRate: 1e-4, HazardStop: 50}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, d := range m.Timeline(nil, topo, seed, 2_000_000) {
			if d.Cycle >= m.HazardStop {
				t.Fatalf("seed %d: hazard death at cycle %d, window ends at %d", seed, d.Cycle, m.HazardStop)
			}
		}
	}
}

// FuzzParseMortality holds the schedule grammar, which arrives from nocd
// bodies and CLI flags, to two laws: the String of any accepted schedule
// is a ParseMortality fixed point, and (for hazard rates small enough to
// keep the draw short) its Timeline on a 6x6 mesh is in policy order with
// every hazard death before the horizon.
func FuzzParseMortality(f *testing.F) {
	for _, s := range []string{
		"none",
		"link:5E@0",
		"link:8E@300,router:21@700",
		"hazard:0.002@100-900",
		"link:3E@1000,link:12N@2500,router:9@4000,hazard:1e-4@50",
		"hazard:1e-3@0-100",
		"router:0@1,hazard:1e-5-100",
	} {
		f.Add(s, uint64(1))
	}
	topo := topology.New(topology.Mesh, 6, 6)
	const stop = 5000
	f.Fuzz(func(t *testing.T, s string, seed uint64) {
		m, err := ParseMortality(s)
		if err != nil {
			return
		}
		canon := m.String()
		again, err := ParseMortality(canon)
		if err != nil {
			t.Fatalf("ParseMortality(%q) rejects its own String %q: %v", s, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("String not a fixed point: %q -> %q -> %q", s, canon, again.String())
		}
		if !(m.HazardRate <= 0.5) {
			return
		}
		tl := m.Timeline(nil, topo, seed, stop)
		late := 0
		for _, l := range m.Links {
			if l.Cycle >= stop {
				late++
			}
		}
		for _, r := range m.Routers {
			if r.Cycle >= stop {
				late++
			}
		}
		for i, d := range tl {
			if i > 0 && !inPolicyOrder(tl[i-1], d) {
				t.Fatalf("%q: entries %d and %d out of order: %+v, %+v", s, i-1, i, tl[i-1], d)
			}
			if d.Cycle >= stop {
				late--
			}
		}
		if late != 0 {
			t.Fatalf("%q: a hazard death lands at or past the horizon %d: %+v", s, stop, tl)
		}
	})
}
