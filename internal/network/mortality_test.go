package network

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
)

// mortalityConfig is the shared platform for the hard-fault tests: a
// 4x4 mesh under fault-adaptive routing, small enough that a run with
// several deaths finishes in milliseconds.
func mortalityConfig(seed uint64) Config {
	cfg := NewConfig()
	cfg.Width, cfg.Height = 4, 4
	cfg.Routing = routing.FaultAdaptive
	cfg.Seed = seed
	cfg.WarmupMessages = 100
	cfg.TotalMessages = 600
	cfg.MaxCycles = 300_000
	cfg.StallCycles = 50_000
	return cfg
}

// undirectedLink is a canonical (East/South representative) mesh link,
// used both to schedule deaths and to run the BFS oracle.
type undirectedLink struct {
	from flit.NodeID
	dir  topology.Port
}

// meshLinks enumerates every canonical undirected link of a WxH mesh.
func meshLinks(w, h int) []undirectedLink {
	t := topology.New(topology.Mesh, w, h)
	var links []undirectedLink
	for n := 0; n < t.Nodes(); n++ {
		for _, d := range []topology.Port{topology.East, topology.South} {
			if _, ok := t.Neighbor(flit.NodeID(n), d); ok {
				links = append(links, undirectedLink{flit.NodeID(n), d})
			}
		}
	}
	return links
}

// oracleFraction computes the reachable-pair fraction of the post-fault
// topology with a plain BFS — an implementation-independent oracle for
// Results.ReachablePairFraction. Dead routers drop out of the numerator
// (they can talk to nobody) but stay in the denominator: the metric is
// "of all pairs the fault-free chip had, how many still communicate".
func oracleFraction(w, h int, deadLinks []undirectedLink, deadRouters []flit.NodeID) float64 {
	t := topology.New(topology.Mesh, w, h)
	dead := make(map[undirectedLink]bool, len(deadLinks))
	for _, l := range deadLinks {
		dead[l] = true
	}
	isDeadNode := make([]bool, t.Nodes())
	for _, n := range deadRouters {
		isDeadNode[n] = true
	}
	live := func(from flit.NodeID, d topology.Port) bool {
		nb, ok := t.Neighbor(from, d)
		if !ok || isDeadNode[from] || isDeadNode[nb] {
			return false
		}
		// Normalise to the canonical East/South representative.
		switch d {
		case topology.West:
			return !dead[undirectedLink{nb, topology.East}]
		case topology.North:
			return !dead[undirectedLink{nb, topology.South}]
		}
		return !dead[undirectedLink{from, d}]
	}
	comp := make([]int, t.Nodes())
	for i := range comp {
		comp[i] = -1
	}
	pairs := 0
	for s := 0; s < t.Nodes(); s++ {
		if comp[s] >= 0 || isDeadNode[s] {
			continue
		}
		size := 0
		queue := []flit.NodeID{flit.NodeID(s)}
		comp[s] = s
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			size++
			for _, d := range []topology.Port{topology.North, topology.East, topology.South, topology.West} {
				if !live(v, d) {
					continue
				}
				nb, _ := t.Neighbor(v, d)
				if comp[nb] < 0 {
					comp[nb] = s
					queue = append(queue, nb)
				}
			}
		}
		pairs += size * (size - 1)
	}
	total := t.Nodes() * (t.Nodes() - 1)
	return float64(pairs) / float64(total)
}

// TestMortalityPropertyRandomFaults is the network-level property test
// of the hard-fault regime: for randomly drawn fault patterns (up to
// 30% of the mesh's links plus occasional router deaths, striking at
// random mid-run cycles), both schedules must terminate without stalling,
// account for every injected message as delivered or undeliverable,
// report the exact BFS reachable-pair fraction, and keep the runtime
// invariant checker silent.
func TestMortalityPropertyRandomFaults(t *testing.T) {
	const w, h = 4, 4
	all := meshLinks(w, h)
	maxDead := len(all) * 30 / 100
	rng := rand.New(rand.NewSource(42))

	for pat := 0; pat < 5; pat++ {
		var mort fault.Mortality
		var deadLinks []undirectedLink
		var deadRouters []flit.NodeID

		picked := map[undirectedLink]bool{}
		k := 1 + rng.Intn(maxDead)
		for len(deadLinks) < k {
			l := all[rng.Intn(len(all))]
			if picked[l] {
				continue
			}
			picked[l] = true
			deadLinks = append(deadLinks, l)
			mort.Links = append(mort.Links, fault.LinkDeath{
				From: l.from, Dir: l.dir, Cycle: uint64(100 + rng.Intn(300)),
			})
		}
		if rng.Intn(3) == 0 {
			n := flit.NodeID(rng.Intn(w * h))
			deadRouters = append(deadRouters, n)
			mort.Routers = append(mort.Routers, fault.RouterDeath{
				Node: n, Cycle: uint64(100 + rng.Intn(300)),
			})
		}
		want := oracleFraction(w, h, deadLinks, deadRouters)

		for _, k := range []schedule{naive, event} {
			cfg := mortalityConfig(uint64(1000 + pat))
			cfg.Faults.Mortality = mort
			chk := attachChecker(&cfg)
			t.Run(fmt.Sprintf("pattern%d/%v", pat, k), func(t *testing.T) {
				n := k.build(cfg)
				res := n.Run()
				if res.Stalled {
					t.Fatalf("run stalled under schedule %v", mort)
				}
				// The run terminates the first time the accounted total
				// reaches TotalMessages; several accounting events can
				// land in that final cycle, so "==" would be too strong.
				got := res.Delivered + res.Undeliverable
				if got < cfg.TotalMessages {
					t.Fatalf("accounted %d messages (delivered %d + undeliverable %d), want >= %d",
						got, res.Delivered, res.Undeliverable, cfg.TotalMessages)
				}
				if got > n.injected() {
					t.Fatalf("accounted %d messages but only %d were injected", got, n.injected())
				}
				if res.Cycles <= 400 {
					t.Fatalf("run ended at cycle %d, before the last scheduled death could fire", res.Cycles)
				}
				if res.DeadRouters != len(deadRouters) {
					t.Fatalf("%d routers died, schedule kills %d", res.DeadRouters, len(deadRouters))
				}
				if res.ReachablePairFraction != want {
					t.Fatalf("reachable-pair fraction %v, BFS oracle says %v (schedule %v)",
						res.ReachablePairFraction, want, mort)
				}
				for _, v := range chk.Violations() {
					t.Errorf("invariant violation: %v", v)
				}
			})
		}
	}
}

// TestKernelDifferentialMortality extends the kernel differential grid
// with mortality: New's network must reproduce the naive oracle's Results
// and full event stream bit-for-bit while links and a router die
// mid-flight, vertical (South) links included, and when they are dead
// from boot (cycle 0).
func TestKernelDifferentialMortality(t *testing.T) {
	schedules := []fault.Mortality{
		{Links: []fault.LinkDeath{
			{From: 5, Dir: topology.South, Cycle: 250}, // row1→row2
			{From: 9, Dir: topology.South, Cycle: 450}, // row2→row3
		}},
		{
			Links:   []fault.LinkDeath{{From: 2, Dir: topology.East, Cycle: 200}},
			Routers: []fault.RouterDeath{{Node: 10, Cycle: 350}},
		},
		{
			Links:   []fault.LinkDeath{{From: 2, Dir: topology.East, Cycle: 0}},
			Routers: []fault.RouterDeath{{Node: 10, Cycle: 0}},
		},
	}
	for si, mort := range schedules {
		cfg := mortalityConfig(uint64(7 + si))
		cfg.Faults.Mortality = mort
		cfg.TracePIDs = []uint64{1, 2, 3, 5, 8, 13}

		want, wantEvents := runCapture(t, cfg, naive)
		t.Run(fmt.Sprintf("schedule%d/%v", si, event), func(t *testing.T) {
			got, gotEvents := runCapture(t, cfg, event)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("results diverge from naive oracle:\n got %+v\nwant %+v", got, want)
			}
			if len(gotEvents) != len(wantEvents) {
				t.Fatalf("event stream length %d, want %d", len(gotEvents), len(wantEvents))
			}
			for i := range gotEvents {
				if gotEvents[i] != wantEvents[i] {
					t.Fatalf("event %d diverges:\n got %+v\nwant %+v", i, gotEvents[i], wantEvents[i])
				}
			}
		})
	}
}

// TestMortalityDeadSendInvariant seeds the bug the dead-send invariant
// exists to catch: a link fails in the topology while a worm is bound
// across it, without the boundary kill sweep that would excise the worm.
// The bound worm keeps winning the switch toward the dead link, and
// every such send must be reported with exact node/port attribution.
func TestMortalityDeadSendInvariant(t *testing.T) {
	cfg := mortalityConfig(11)
	chk := attachChecker(&cfg)
	n := New(cfg)
	if n.mort == nil {
		t.Fatal("fault-adaptive config did not build the mortality controller")
	}
	const victim, dir = 5, topology.East
	bound := func() bool {
		for vc := 0; vc < cfg.VCs; vc++ {
			if _, _, ok := n.routers[victim].OutputOwner(dir, vc); ok {
				return true
			}
		}
		return false
	}
	for !bound() {
		if n.kernel.Cycle() >= 10_000 {
			t.Fatal("no worm bound across link 5→East in 10 000 cycles")
		}
		n.step()
	}
	// Fail link 5→East behind the controller's back: the worm stays.
	n.topo.FailLink(victim, dir)
	for i := 0; i < 1_000 && chk.Total() == 0; i++ {
		n.step()
	}
	found := false
	for _, v := range chk.Violations() {
		if v.Check != "dead-send" {
			t.Errorf("unexpected violation: %v", v)
			continue
		}
		if v.Node != victim || v.Port != int8(dir) {
			t.Fatalf("dead-send attributed to node %d port %d, want node %d port %d",
				v.Node, v.Port, victim, dir)
		}
		found = true
	}
	if !found {
		t.Fatal("no dead-send violation reported for a worm bound across a dead link")
	}
}

// TestMortalityDegradationMonotone pins the paper-style degradation
// curve: killing a superset of links can never increase connectivity,
// so the reachable-pair fraction must be non-increasing along a
// schedule prefix chain — and every point must still account for all
// of its traffic.
func TestMortalityDegradationMonotone(t *testing.T) {
	deaths := []fault.LinkDeath{
		{From: 0, Dir: topology.East, Cycle: 200},
		{From: 0, Dir: topology.South, Cycle: 200}, // node 0 now isolated
		{From: 5, Dir: topology.East, Cycle: 300},
		{From: 5, Dir: topology.South, Cycle: 300},
		{From: 9, Dir: topology.East, Cycle: 400},
		{From: 13, Dir: topology.East, Cycle: 400},
	}
	prev := 2.0
	for n := 0; n <= len(deaths); n += 2 {
		cfg := mortalityConfig(3)
		cfg.Faults.Mortality = fault.Mortality{Links: deaths[:n]}
		chk := attachChecker(&cfg)
		res := New(cfg).Run()
		if res.Stalled {
			t.Fatalf("%d deaths: stalled", n)
		}
		if got := res.Delivered + res.Undeliverable; got < cfg.TotalMessages {
			t.Fatalf("%d deaths: accounted %d messages, want >= %d", n, got, cfg.TotalMessages)
		}
		if res.ReachablePairFraction > prev {
			t.Fatalf("%d deaths: reachable-pair fraction rose to %v from %v",
				n, res.ReachablePairFraction, prev)
		}
		if n == 0 && res.ReachablePairFraction != 1 {
			t.Fatalf("fault-free fraction %v, want 1", res.ReachablePairFraction)
		}
		if n == len(deaths) && res.ReachablePairFraction >= 1 {
			t.Fatalf("%d deaths left fraction %v, want < 1 (node 0 is isolated)", n, res.ReachablePairFraction)
		}
		prev = res.ReachablePairFraction
		for _, v := range chk.Violations() {
			t.Errorf("%d deaths: invariant violation: %v", n, v)
		}
	}
}

// TestValidateMortality pins the Validate guard: malformed schedules
// must be rejected with ErrInvalidConfig before a network is built.
func TestValidateMortality(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"link node out of range", func(c *Config) {
			c.Faults.Mortality.Links = []fault.LinkDeath{{From: 99, Dir: topology.East, Cycle: 10}}
		}},
		{"link off the edge", func(c *Config) {
			c.Faults.Mortality.Links = []fault.LinkDeath{{From: 3, Dir: topology.East, Cycle: 10}}
		}},
		{"link death past horizon", func(c *Config) {
			c.Faults.Mortality.Links = []fault.LinkDeath{{From: 0, Dir: topology.East, Cycle: c.MaxCycles}}
		}},
		{"router out of range", func(c *Config) {
			c.Faults.Mortality.Routers = []fault.RouterDeath{{Node: 99, Cycle: 10}}
		}},
		{"router death past horizon", func(c *Config) {
			c.Faults.Mortality.Routers = []fault.RouterDeath{{Node: 1, Cycle: c.MaxCycles + 1}}
		}},
		{"hazard rate not a probability", func(c *Config) {
			c.Faults.Mortality.HazardRate = 1.5
		}},
		{"negative hazard rate", func(c *Config) {
			c.Faults.Mortality.HazardRate = -0.1
		}},
		{"hazard window inverted", func(c *Config) {
			c.Faults.Mortality.HazardRate = 1e-3
			c.Faults.Mortality.HazardStart = 500
			c.Faults.Mortality.HazardStop = 100
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mortalityConfig(1)
			tc.mut(&cfg)
			err := cfg.Validate()
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("Validate() = %v, want ErrInvalidConfig", err)
			}
		})
	}
	// And the well-formed schedule passes.
	cfg := mortalityConfig(1)
	cfg.Faults.Mortality = fault.Mortality{
		Links:      []fault.LinkDeath{{From: 0, Dir: topology.East, Cycle: 100}},
		Routers:    []fault.RouterDeath{{Node: 5, Cycle: 200}},
		HazardRate: 1e-4, HazardStart: 50,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// A MaxCycles of 0 runs with the 2 000 000-cycle default, so Validate holds
// a mortality schedule to that horizon: a 4x4 document whose link dies at
// cycle 3 000 000 is rejected with the same message whether it says 0 or
// the default.
func TestValidateMortalityDefaultHorizon(t *testing.T) {
	check := func(maxCycles string) string {
		doc := `{"Width":4,"Height":4,"MaxCycles":` + maxCycles +
			`,"Faults":{"Mortality":{"Links":[{"From":0,"Dir":2,"Cycle":3000000}]}}}`
		cfg, err := ReadConfig(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		err = cfg.Validate()
		if !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("MaxCycles %s: Validate() = %v, want ErrInvalidConfig", maxCycles, err)
		}
		return err.Error()
	}
	zero, def := check("0"), check("2000000")
	if zero != def || !strings.Contains(def, "mortality link death at cycle 3000000 is past MaxCycles 2000000") {
		t.Errorf("MaxCycles 0: %q\nMaxCycles 2000000: %q", zero, def)
	}
}

// TestMortalityHazardReproducible pins the hazard process: a rate-driven
// schedule derives its victims and death cycles from the simulation seed
// alone, so two runs of the same config are bit-identical experiments —
// and the rate actually kills something over a multi-hundred-cycle run.
func TestMortalityHazardReproducible(t *testing.T) {
	cfg := mortalityConfig(21)
	cfg.Faults.Mortality = fault.Mortality{HazardRate: 5e-3, HazardStart: 100}
	first := New(cfg).Run()
	again := New(cfg).Run()
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("hazard runs diverge:\n got %+v\nwant %+v", again, first)
	}
	if first.DeadLinks == 0 {
		t.Fatal("hazard rate 5e-3 killed nothing over the run")
	}
	if first.Stalled {
		t.Fatal("hazard run stalled")
	}
	if got := first.Delivered + first.Undeliverable; got < cfg.TotalMessages {
		t.Fatalf("accounted %d messages, want >= %d", got, cfg.TotalMessages)
	}
}

// TestMortalityRouterDeathCleanup drives the full router-kill path and
// its PE cleanup: the dead core's queued and staged traffic must get
// terminal verdicts, traffic to the dead node must be refused or
// excised, and the invariant ledger must stay clean through all of it.
func TestMortalityRouterDeathCleanup(t *testing.T) {
	cfg := mortalityConfig(13)
	cfg.Faults.Mortality = fault.Mortality{
		Routers: []fault.RouterDeath{{Node: 5, Cycle: 250}, {Node: 10, Cycle: 400}},
	}
	chk := attachChecker(&cfg)
	res := New(cfg).Run()
	if res.Stalled {
		t.Fatal("run stalled")
	}
	if res.DeadRouters != 2 {
		t.Fatalf("%d routers died, want 2", res.DeadRouters)
	}
	if res.Undeliverable == 0 {
		t.Fatal("two router deaths produced no undeliverable verdicts")
	}
	want := oracleFraction(4, 4, nil, []flit.NodeID{5, 10})
	if res.ReachablePairFraction != want {
		t.Fatalf("reachable-pair fraction %v, BFS oracle says %v", res.ReachablePairFraction, want)
	}
	for _, v := range chk.Violations() {
		t.Errorf("invariant violation: %v", v)
	}
}
