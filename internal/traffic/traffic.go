// Package traffic implements the paper's workload model (§2.2): every
// node injects fixed-size messages at regular intervals set by the
// injection rate (flits/node/cycle), with destinations drawn from one of
// three spatial distributions — normal random (NR), bit-complement (BC)
// and tornado (TN) — plus transpose, shuffle and hotspot as extensions.
package traffic

import (
	"fmt"
	"math/bits"
	"strings"

	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
)

// Pattern selects the destination distribution.
type Pattern uint8

// Destination patterns. NR, BC and TN are the paper's three; the rest are
// classic additions from the interconnection-network literature [19, 23].
const (
	// UniformRandom (NR): uniform over all nodes except the source.
	UniformRandom Pattern = iota + 1
	// BitComplement (BC): node i sends to ~i (within the address width).
	BitComplement
	// Tornado (TN): half-ring offset along the X dimension.
	Tornado
	// Transpose: (x, y) sends to (y, x); diagonal nodes stay silent.
	Transpose
	// Shuffle: address rotated left by one bit.
	Shuffle
	// Hotspot: uniform random, but a fixed fraction targets node 0.
	Hotspot
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "NR"
	case BitComplement:
		return "BC"
	case Tornado:
		return "TN"
	case Transpose:
		return "TP"
	case Shuffle:
		return "SH"
	case Hotspot:
		return "HS"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// ParsePattern maps a pattern mnemonic (NR, BC, TN, TP, SH, HS —
// case-insensitive) to its Pattern.
func ParsePattern(s string) (Pattern, error) {
	switch strings.ToUpper(s) {
	case "NR":
		return UniformRandom, nil
	case "BC":
		return BitComplement, nil
	case "TN":
		return Tornado, nil
	case "TP":
		return Transpose, nil
	case "SH":
		return Shuffle, nil
	case "HS":
		return Hotspot, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q (want NR, BC, TN, TP, SH or HS)", s)
	}
}

// HotspotFraction is the share of Hotspot traffic aimed at the hot node.
const HotspotFraction = 0.2

// Source produces one node's injection process: a deterministic
// rate-accumulator (the paper's "regular intervals"), phase-staggered per
// node so injections do not synchronise across the chip.
type Source struct {
	node    flit.NodeID
	topo    *topology.Topology
	pattern Pattern
	// perCycle is the packet injection probability-mass accumulated each
	// cycle: rate / packetSize.
	perCycle float64
	acc      float64
	rng      *sim.RNG
}

// NewSource creates the injection process for one node. rate is in
// flits/node/cycle; packetSize converts it to packets.
func NewSource(node flit.NodeID, topo *topology.Topology, pattern Pattern, rate float64, packetSize int, rng *sim.RNG) *Source {
	return &NewSources(nil, node, 1, topo, pattern, rate, packetSize, func(int) *sim.RNG { return rng })[0]
}

// NewSources creates the injection processes of n consecutive nodes in one
// slab from s (sim.Make): source i is node first+i's, drawing from rng(i).
func NewSources(s *sim.Slabs, first flit.NodeID, n int, topo *topology.Topology, pattern Pattern, rate float64, packetSize int, rng func(i int) *sim.RNG) []Source {
	if rate < 0 {
		panic("traffic: negative injection rate")
	}
	if packetSize < 1 {
		panic("traffic: packet size must be >= 1")
	}
	srcs := sim.Make[Source](s, n)
	for i := range srcs {
		r := rng(i)
		srcs[i] = Source{
			node:     first + flit.NodeID(i),
			topo:     topo,
			pattern:  pattern,
			perCycle: rate / float64(packetSize),
			acc:      r.Float64(), // random phase
			rng:      r,
		}
	}
	return srcs
}

// Tick advances one cycle and reports whether a packet should be injected
// now, and to which destination. ok is false on non-injection cycles and
// for pattern fixed points (e.g. transpose diagonals).
func (s *Source) Tick() (dst flit.NodeID, ok bool) {
	s.acc += s.perCycle
	if s.acc < 1 {
		return 0, false
	}
	s.acc--
	d := s.dest()
	if d == s.node {
		return 0, false
	}
	return d, true
}

// Skip advances the accumulator by k non-injecting cycles, replaying
// exactly the additions Tick would have performed — so a caller that
// skipped k idle cycles ends up with a bit-identical accumulator. It must
// only be called for cycles known not to reach the injection threshold
// (see NextCrossing): a crossing cycle draws a destination from the RNG,
// which Skip deliberately does not.
func (s *Source) Skip(k uint64) {
	for i := uint64(0); i < k; i++ {
		s.acc += s.perCycle
	}
}

// NextCrossing predicts when the source next reaches the injection
// threshold: the k-th future Tick (k >= 1) is the first to attempt an
// injection. The prediction replays the accumulator's exact float
// additions rather than dividing, so it agrees bit-for-bit with what Tick
// will do. The search is capped at limit: (limit, false) means cycles
// 1..limit-1 are all sub-threshold — the caller may sleep that long and
// ask again. A zero-rate source returns (0, false): it never crosses.
func (s *Source) NextCrossing(limit uint64) (k uint64, crosses bool) {
	if s.perCycle <= 0 {
		return 0, false
	}
	acc := s.acc
	for k = 1; k < limit; k++ {
		acc += s.perCycle
		if acc >= 1 {
			return k, true
		}
	}
	return limit, false
}

// dest draws a destination per the configured pattern.
func (s *Source) dest() flit.NodeID {
	n := s.topo.Nodes()
	switch s.pattern {
	case UniformRandom:
		d := flit.NodeID(s.rng.Intn(n - 1))
		if d >= s.node {
			d++
		}
		return d
	case BitComplement:
		if n&(n-1) == 0 {
			mask := flit.NodeID(n - 1)
			return ^s.node & mask
		}
		return flit.NodeID(n-1) - s.node
	case Tornado:
		c := s.topo.CoordOf(s.node)
		w := s.topo.Width()
		c.X = (c.X + (w+1)/2 - 1) % w
		return s.topo.IDOf(c)
	case Transpose:
		c := s.topo.CoordOf(s.node)
		c.X, c.Y = c.Y, c.X
		if c.X >= s.topo.Width() || c.Y >= s.topo.Height() {
			return s.node // non-square grid: out-of-range transposes stay home
		}
		return s.topo.IDOf(c)
	case Shuffle:
		if n&(n-1) == 0 {
			width := bits.Len(uint(n - 1))
			v := uint(s.node)
			v = (v<<1 | v>>(width-1)) & uint(n-1)
			return flit.NodeID(v)
		}
		return flit.NodeID((int(s.node) * 2) % n)
	case Hotspot:
		if s.rng.Bool(HotspotFraction) {
			return 0
		}
		d := flit.NodeID(s.rng.Intn(n - 1))
		if d >= s.node {
			d++
		}
		return d
	default:
		panic("traffic: unknown pattern")
	}
}
