package fault

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// Mortality is the hard-fault schedule of a run: permanent link and
// router deaths at configured cycles, plus an optional memoryless hazard
// process that kills random live links at a per-cycle rate. Unlike the
// transient Rates it sits beside, mortality is irreversible — the
// network degrades monotonically and the interesting measurements are
// reachability and throughput after each death.
//
// Mortality is part of the configuration (hash-included): two runs with
// different schedules are different experiments.
type Mortality struct {
	// Links lists scheduled link deaths. Each kills the physical link in
	// both directions at its cycle.
	Links []LinkDeath `json:",omitempty"`
	// Routers lists scheduled router deaths: all incident links die and
	// the node's PE stops generating traffic.
	Routers []RouterDeath `json:",omitempty"`
	// HazardRate is the per-cycle probability that one additional random
	// live link dies, active on cycles [HazardStart, HazardStop) (a zero
	// HazardStop means "until the run ends"). Victims derive from the
	// simulation seed, so a hazard schedule is as reproducible as an
	// explicit one.
	HazardRate  float64 `json:",omitempty"`
	HazardStart uint64  `json:",omitempty"`
	HazardStop  uint64  `json:",omitempty"`
}

// LinkDeath schedules the bidirectional death of the physical link
// (From, Dir) at the start of the given cycle.
type LinkDeath struct {
	From  flit.NodeID
	Dir   topology.Port
	Cycle uint64
}

// RouterDeath schedules the death of a router (and its PE) at the start
// of the given cycle.
type RouterDeath struct {
	Node  flit.NodeID
	Cycle uint64
}

// Enabled reports whether the schedule kills anything.
func (m Mortality) Enabled() bool {
	return len(m.Links) > 0 || len(m.Routers) > 0 || m.HazardRate > 0
}

// dirNames maps mesh directions to their schedule-grammar letters.
var dirNames = map[topology.Port]string{
	topology.North: "N", topology.East: "E", topology.South: "S", topology.West: "W",
}

// String renders the schedule in the ParseMortality grammar — the
// canonical axis label campaign tables and CLI flags use. Entries print
// in schedule order; an empty schedule prints as "none".
func (m Mortality) String() string {
	if !m.Enabled() {
		return "none"
	}
	var parts []string
	for _, l := range m.Links {
		d, ok := dirNames[l.Dir]
		if !ok {
			d = fmt.Sprintf("(%d)", l.Dir)
		}
		parts = append(parts, fmt.Sprintf("link:%d%s@%d", l.From, d, l.Cycle))
	}
	for _, r := range m.Routers {
		parts = append(parts, fmt.Sprintf("router:%d@%d", r.Node, r.Cycle))
	}
	if m.HazardRate > 0 {
		h := "hazard:" + strconv.FormatFloat(m.HazardRate, 'g', -1, 64)
		if m.HazardStart > 0 || m.HazardStop > 0 {
			h += fmt.Sprintf("@%d", m.HazardStart)
			if m.HazardStop > 0 {
				h += fmt.Sprintf("-%d", m.HazardStop)
			}
		}
		parts = append(parts, h)
	}
	return strings.Join(parts, ",")
}

// ParseMortality parses the schedule grammar: a comma-separated list of
//
//	link:<node><N|E|S|W>@<cycle>   one link dies (both directions)
//	router:<node>@<cycle>          one router dies
//	hazard:<rate>[@<start>[-<stop>]]  memoryless link deaths
//
// "none" or the empty string is the empty schedule. The grammar is the
// inverse of String, so schedules round-trip through campaign tables.
func ParseMortality(s string) (Mortality, error) {
	var m Mortality
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return m, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return Mortality{}, fmt.Errorf("fault: bad mortality entry %q (want kind:spec)", part)
		}
		switch kind {
		case "link":
			spec, cyc, ok := strings.Cut(rest, "@")
			if !ok {
				return Mortality{}, fmt.Errorf("fault: link death %q is missing its @cycle", part)
			}
			if len(spec) < 2 {
				return Mortality{}, fmt.Errorf("fault: bad link spec %q (want <node><N|E|S|W>)", spec)
			}
			var dir topology.Port
			switch spec[len(spec)-1] {
			case 'N':
				dir = topology.North
			case 'E':
				dir = topology.East
			case 'S':
				dir = topology.South
			case 'W':
				dir = topology.West
			default:
				return Mortality{}, fmt.Errorf("fault: bad link direction %q (want N, E, S or W)", spec[len(spec)-1:])
			}
			node, err := strconv.ParseUint(spec[:len(spec)-1], 10, 16)
			if err != nil {
				return Mortality{}, fmt.Errorf("fault: bad link node in %q: %v", part, err)
			}
			cycle, err := strconv.ParseUint(cyc, 10, 64)
			if err != nil {
				return Mortality{}, fmt.Errorf("fault: bad death cycle in %q: %v", part, err)
			}
			m.Links = append(m.Links, LinkDeath{From: flit.NodeID(node), Dir: dir, Cycle: cycle})
		case "router":
			spec, cyc, ok := strings.Cut(rest, "@")
			if !ok {
				return Mortality{}, fmt.Errorf("fault: router death %q is missing its @cycle", part)
			}
			node, err := strconv.ParseUint(spec, 10, 16)
			if err != nil {
				return Mortality{}, fmt.Errorf("fault: bad router node in %q: %v", part, err)
			}
			cycle, err := strconv.ParseUint(cyc, 10, 64)
			if err != nil {
				return Mortality{}, fmt.Errorf("fault: bad death cycle in %q: %v", part, err)
			}
			m.Routers = append(m.Routers, RouterDeath{Node: flit.NodeID(node), Cycle: cycle})
		case "hazard":
			spec, window, windowed := strings.Cut(rest, "@")
			rate, err := strconv.ParseFloat(spec, 64)
			if err != nil {
				return Mortality{}, fmt.Errorf("fault: bad hazard rate in %q: %v", part, err)
			}
			m.HazardRate = rate
			if windowed {
				start, stop, ranged := strings.Cut(window, "-")
				if m.HazardStart, err = strconv.ParseUint(start, 10, 64); err != nil {
					return Mortality{}, fmt.Errorf("fault: bad hazard start in %q: %v", part, err)
				}
				if ranged {
					if m.HazardStop, err = strconv.ParseUint(stop, 10, 64); err != nil {
						return Mortality{}, fmt.Errorf("fault: bad hazard stop in %q: %v", part, err)
					}
				}
			}
		default:
			return Mortality{}, fmt.Errorf("fault: unknown mortality entry kind %q (want link, router or hazard)", kind)
		}
	}
	return m, nil
}

// Death is one entry of a mortality timeline: at the start of Cycle the
// physical link (Node, Dir) dies in both directions or, with Router set,
// router Node dies. A fault present from boot is a death at cycle 0.
type Death struct {
	Cycle  uint64
	Router bool
	Node   flit.NodeID
	Dir    topology.Port // link deaths only
}

// hazardSeedSalt decorrelates the hazard process from every other
// consumer of the run seed.
const hazardSeedSalt = 0x6d6f7274616c6974

// Timeline expands the schedule into the deaths a run applies, in
// application order: by cycle, links before routers within a cycle, then
// by node and direction. Entries equal under that order keep their source
// order — explicit links, hazard samples, routers — so a hazard draw on an
// explicitly scheduled link follows it (and finds it already dead).
//
// The hazard process picks its victims uniformly among topo's physical
// links (the East/South half of each), from a generator seeded by seed.
// It runs on cycles [HazardStart, HazardStop), with stop (the run's
// horizon) standing in for a zero or later HazardStop.
func (m Mortality) Timeline(topo *topology.Topology, seed, stop uint64) []Death {
	var tl []Death
	if n := len(m.Links) + len(m.Routers); n > 0 {
		tl = make([]Death, 0, n)
	}
	for _, l := range m.Links {
		tl = append(tl, Death{Cycle: l.Cycle, Node: l.From, Dir: l.Dir})
	}
	tl = m.appendHazard(tl, topo, seed, stop)
	for _, r := range m.Routers {
		tl = append(tl, Death{Cycle: r.Cycle, Router: true, Node: r.Node})
	}
	slices.SortStableFunc(tl, func(a, b Death) int {
		if c := cmp.Compare(a.Cycle, b.Cycle); c != 0 || a.Router == b.Router {
			return cmp.Or(c, cmp.Compare(a.Node, b.Node), cmp.Compare(a.Dir, b.Dir))
		}
		if a.Router {
			return 1 // links before routers within a cycle
		}
		return -1
	})
	return tl
}

// appendHazard pre-draws the memoryless link-death process: geometric
// gaps between deaths by inverse-transform sampling, one uniform victim
// per death.
func (m Mortality) appendHazard(tl []Death, topo *topology.Topology, seed, stop uint64) []Death {
	if m.HazardRate <= 0 {
		return tl
	}
	if m.HazardStop != 0 && m.HazardStop < stop {
		stop = m.HazardStop
	}
	var reps []topology.LinkID
	for _, l := range topo.Links() {
		if l.Dir == topology.East || l.Dir == topology.South {
			reps = append(reps, l)
		}
	}
	if len(reps) == 0 {
		return tl
	}
	rng := sim.NewRNG(seed ^ hazardSeedSalt)
	logq := math.Log1p(-m.HazardRate)
	for c := m.HazardStart; c < stop; c++ {
		// Compared as a float: a gap past the horizon may not fit a uint64.
		gap := math.Floor(math.Log1p(-rng.Float64()) / logq)
		if gap >= float64(stop-c) {
			break
		}
		c += uint64(gap)
		v := reps[rng.Intn(len(reps))]
		tl = append(tl, Death{Cycle: c, Node: v.From, Dir: v.Dir})
	}
	return tl
}
