// Package fault implements the soft-fault injection machinery the paper
// uses to evaluate its protection schemes (§2.2): random transient faults
// on inter-router links (bit flips during flit traversal) and single-event
// upsets in intra-router logic (routing unit, VC allocator, switch
// allocator). Hard faults (permanent link outages) live in package
// topology.
//
// Every injector draws from its own deterministic stream, so fault
// placement is a pure function of the simulation seed.
package fault

import (
	"fmt"
	"maps"

	"ftnoc/internal/ecc"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
)

// Class identifies which part of the router a fault upsets. These are the
// three error situations evaluated in Fig. 13 plus the VA class analysed
// in §4.1.
type Class uint8

// Fault classes.
const (
	// LinkError is a transient bit flip during flit link traversal (§3).
	LinkError Class = iota + 1
	// RTLogic is a soft error in the routing unit causing misdirection (§4.2).
	RTLogic
	// VALogic is a soft error in the virtual-channel allocator state (§4.1).
	VALogic
	// SALogic is a soft error in the switch allocator control (§4.3).
	SALogic
	// HandshakeError is a transient fault on the inter-router handshake
	// lines (NACK wires), countered by Triple Module Redundancy (§4.6).
	HandshakeError
	// RetransBufError is a soft error inside a retransmission buffer
	// (§4.5): the stored "clean" copy is itself corrupted, so replaying
	// it can never satisfy the receiver — an endless retransmission loop
	// unless duplicate buffers provide a second clean copy.
	RetransBufError
	// XbarError is a transient fault within the crossbar (§4.4): a
	// single-bit upset on the datapath, corrected by the next hop's
	// SEC/DED unit.
	XbarError
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case LinkError:
		return "LINK"
	case RTLogic:
		return "RT-Logic"
	case VALogic:
		return "VA-Logic"
	case SALogic:
		return "SA-Logic"
	case HandshakeError:
		return "Handshake"
	case RetransBufError:
		return "RetransBuf"
	case XbarError:
		return "Xbar"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Rates configures per-operation upset probabilities.
type Rates struct {
	// Link is the probability that a flit suffers an error event during a
	// single link traversal.
	Link float64
	// LinkDouble is the conditional probability that a link error event
	// flips two bits (uncorrectable by SEC/DED) rather than one. The
	// paper argues double errors are unlikely but non-negligible due to
	// crosstalk (§3.1).
	LinkDouble float64
	// RT is the per-routing-computation probability of a misdirection
	// upset in the routing unit.
	RT float64
	// VA is the per-allocation probability of a VC-allocator state upset.
	VA float64
	// SA is the per-arbitration probability of a switch-allocator control
	// upset.
	SA float64
	// Handshake is the per-signal probability of a transient fault on a
	// NACK handshake line (§4.6). Without TMR a faulted NACK is lost.
	Handshake float64
	// RetransBuf is the per-capture probability that a retransmission
	// buffer slot suffers an uncorrectable upset while holding a flit
	// (§4.5). Only the DuplicateRetrans option survives it.
	RetransBuf float64
	// Xbar is the per-traversal probability of a single-bit upset on the
	// crossbar datapath (§4.4), corrected downstream by SEC/DED.
	Xbar float64
	// Mortality is the hard-fault schedule: permanent link and router
	// deaths applied while the run is in flight (see Mortality). Unlike
	// the transient rates above it is irreversible damage, handled by the
	// network's reconfiguration controller rather than the injectors.
	Mortality Mortality `json:",omitempty"`
}

// DefaultLinkDouble is the conditional double-bit fraction used by the
// experiment harness when a config does not override it.
const DefaultLinkDouble = 0.05

// LinkOutcome describes what a link injector did to a flit.
type LinkOutcome uint8

// Link injection outcomes.
const (
	// NoError means the flit traversed cleanly.
	NoError LinkOutcome = iota
	// SingleFlip means one bit was flipped (SEC/DED-correctable).
	SingleFlip
	// DoubleFlip means two bits were flipped (detectable, uncorrectable).
	DoubleFlip
)

// Corruptor is anything that may corrupt a flit in transit. The link
// layer consults it once per flit traversal; tests substitute scripted
// implementations for deterministic fault placement.
type Corruptor interface {
	Corrupt(*flit.Flit) LinkOutcome
}

// LinkInjector corrupts flits crossing one directed link.
//
// The per-traversal Bernoulli draws are batched: instead of calling the
// RNG once per flit, the injector precomputes the run length of misses
// until the next hit by drawing Bool(rate) repeatedly from the SAME
// stream, stopping at the first success. Each traversal then consumes one
// precomputed draw, so the sequence of (hit/miss, bit-position) decisions
// is bit-identical to the unbatched injector — the RNG stream-stability
// contract (see DESIGN.md, "RNG stream stability") — while the amortised
// per-flit cost at low error rates is a counter decrement.
type LinkInjector struct {
	rate   float64
	double float64
	rng    *sim.RNG

	// misses is the number of already-drawn Bool(rate)=false outcomes not
	// yet consumed; hitNext records whether a drawn success follows them.
	misses  int
	hitNext bool
}

// NewLinkInjector creates an injector with the given per-traversal error
// rate and conditional double-bit fraction, drawing from rng.
func NewLinkInjector(rate, double float64, rng *sim.RNG) *LinkInjector {
	return &NewLinkInjectors(nil, 1, rate, double, func(int) *sim.RNG { return rng })[0]
}

// NewLinkInjectors creates n injectors sharing one rate and double-bit
// fraction in one slab from s (sim.Make), injector i drawing from rng(i).
func NewLinkInjectors(s *sim.Slabs, n int, rate, double float64, rng func(i int) *sim.RNG) []LinkInjector {
	if !(rate >= 0 && rate <= 1) { // negated form rejects NaN too
		panic("fault: link error rate must be in [0,1]")
	}
	if !(double >= 0 && double <= 1) {
		panic("fault: double fraction must be in [0,1]")
	}
	lis := sim.Make[LinkInjector](s, n)
	for i := range lis {
		lis[i] = LinkInjector{rate: rate, double: double, rng: rng(i)}
	}
	return lis
}

// maxMissBatch bounds how many Bernoulli misses a refill draws ahead of
// the traversals that consume them. A link that carries few flits leaves
// most of its last batch unused, and a mesh has hundreds of links, so the
// bound is what a quiet link wastes; it is long enough that the refill
// call itself is amortised away.
const maxMissBatch = 64

// refill draws Bool(rate) from the stream until the first success (or the
// batch bound), recording the run of misses. Exactly the draws the
// unbatched injector would have made, in the same order.
func (li *LinkInjector) refill() {
	for li.misses < maxMissBatch {
		if li.rng.Bool(li.rate) {
			li.hitNext = true
			return
		}
		li.misses++
	}
}

// Corrupt possibly flips bits in f's codeword and reports what happened.
// The 72 codeword bit positions (64 data + 8 check) are equally likely.
func (li *LinkInjector) Corrupt(f *flit.Flit) LinkOutcome {
	if li == nil || li.rate == 0 {
		return NoError
	}
	if li.misses == 0 && !li.hitNext {
		li.refill()
	}
	if li.misses > 0 {
		li.misses--
		return NoError
	}
	li.hitNext = false
	a := li.rng.Intn(72)
	flipBit(f, a)
	if !li.rng.Bool(li.double) {
		return SingleFlip
	}
	b := li.rng.Intn(71)
	if b >= a {
		b++ // distinct from a
	}
	flipBit(f, b)
	return DoubleFlip
}

func flipBit(f *flit.Flit, pos int) {
	if pos < 64 {
		f.Word = ecc.FlipDataBit(f.Word, pos)
	} else {
		f.Check = ecc.FlipCheckBit(f.Check, pos-64)
	}
}

// LogicInjector decides, operation by operation, whether a router's logic
// suffers a single-event upset. One injector per router per fault class;
// the single-event-upset assumption (at most one fault at a time, §4.1) is
// the caller's responsibility via configuration (enable one class per
// experiment, as the paper does for Fig. 13).
type LogicInjector struct {
	class Class
	rate  float64
	rng   *sim.RNG

	// script, when non-nil, overrides the stochastic draw: operation k
	// upsets iff script[k] (operations past the end never upset). Used by
	// white-box tests that need a fault at an exact operation.
	script []bool
	idx    int
	picks  []int
	pickI  int
}

// NewLogicInjector creates an injector for one fault class.
func NewLogicInjector(class Class, rate float64, rng *sim.RNG) *LogicInjector {
	return &NewLogicInjectors(nil, 1, class, rate, func(int) *sim.RNG { return rng })[0]
}

// NewLogicInjectors creates n injectors for one fault class in one slab
// from s (sim.Make) — one per router — injector i drawing from rng(i).
func NewLogicInjectors(s *sim.Slabs, n int, class Class, rate float64, rng func(i int) *sim.RNG) []LogicInjector {
	if rate < 0 || rate > 1 {
		panic("fault: logic upset rate must be in [0,1]")
	}
	lis := sim.Make[LogicInjector](s, n)
	for i := range lis {
		lis[i] = LogicInjector{class: class, rate: rate, rng: rng(i)}
	}
	return lis
}

// NewScriptedLogicInjector creates a deterministic injector: operation k
// upsets iff script[k], and corruption-target choices are taken from
// picks (cycled). Test tooling for exercising exact fault scenarios.
func NewScriptedLogicInjector(class Class, script []bool, picks []int) *LogicInjector {
	if len(picks) == 0 {
		picks = []int{0}
	}
	return &LogicInjector{class: class, script: script, picks: picks}
}

// Class returns the injector's fault class.
func (li *LogicInjector) Class() Class { return li.class }

// Upset reports whether the current operation suffers an upset.
func (li *LogicInjector) Upset() bool {
	if li == nil {
		return false
	}
	if li.script != nil {
		if li.idx >= len(li.script) {
			return false
		}
		hit := li.script[li.idx]
		li.idx++
		return hit
	}
	if li.rate == 0 {
		return false
	}
	return li.rng.Bool(li.rate)
}

// Pick returns a uniform value in [0, n), for choosing corrupted targets
// (which VC id to clobber, which port to misdirect to, ...).
func (li *LogicInjector) Pick(n int) int {
	if li.script != nil {
		v := li.picks[li.pickI%len(li.picks)]
		li.pickI++
		return v % n
	}
	return li.rng.Intn(n)
}

// CounterOp distinguishes the three accounting outcomes an Observer can
// be notified of.
type CounterOp uint8

// Counter operations.
const (
	// OpInjected: an upset was actually injected.
	OpInjected CounterOp = iota + 1
	// OpCorrected: a protection mechanism repaired an error.
	OpCorrected
	// OpUndetected: an upset escaped every mechanism.
	OpUndetected
)

// Counters tallies fault-handling activity for the statistics pipeline.
// The "corrected errors" series of Fig. 13(a) is the sum, per class, of
// errors the corresponding protection mechanism repaired.
type Counters struct {
	// Injected counts upsets actually injected, per class.
	Injected map[Class]uint64
	// Corrected counts errors repaired by a protection mechanism:
	// SEC/DED corrections plus HBH retransmissions for LinkError;
	// AC invalidations for VA/SA; VA-state catches and neighbor NACKs
	// for RT.
	Corrected map[Class]uint64
	// Undetected counts upsets no mechanism caught (e.g. benign adaptive
	// misroutes, or any class with its protection disabled).
	Undetected map[Class]uint64
	// Retransmissions counts HBH flit retransmission events.
	Retransmissions uint64
	// NACKs counts NACK signals sent.
	NACKs uint64
	// DroppedFlits counts flits discarded at receivers during the HBH
	// drop window.
	DroppedFlits uint64

	// Observer, when non-nil, is invoked synchronously on every
	// class-accounting call. The network uses it to republish fault
	// accounting onto the structured event bus with cycle context; it
	// must not mutate simulation state. Excluded from JSON so Results
	// containing Counters still serialise.
	Observer func(op CounterOp, cl Class) `json:"-"`
}

// Snapshot returns a deep copy of the counts with no Observer attached:
// the form in which a finished run hands its counters to callers. The
// counts of more are added in.
func (c *Counters) Snapshot(more ...*Counters) *Counters {
	s := *c
	s.Injected = maps.Clone(c.Injected)
	s.Corrected = maps.Clone(c.Corrected)
	s.Undetected = maps.Clone(c.Undetected)
	s.Observer = nil
	for _, o := range more {
		s.Retransmissions += o.Retransmissions
		s.NACKs += o.NACKs
		s.DroppedFlits += o.DroppedFlits
		addCounts(s.Injected, o.Injected)
		addCounts(s.Corrected, o.Corrected)
		addCounts(s.Undetected, o.Undetected)
	}
	return &s
}

// addCounts adds the counts of o into m.
func addCounts(m, o map[Class]uint64) {
	for cl, n := range o {
		m[cl] += n
	}
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{
		Injected:   make(map[Class]uint64),
		Corrected:  make(map[Class]uint64),
		Undetected: make(map[Class]uint64),
	}
}

// Reserve makes the maps' storage now, so that counting allocates
// nothing: a small map makes it on its first insert, which Reserve makes
// and undoes.
func (c *Counters) Reserve() {
	for _, m := range [...]map[Class]uint64{c.Injected, c.Corrected, c.Undetected} {
		m[0] = 0
		delete(m, 0)
	}
}

// AddInjected records an injected upset.
func (c *Counters) AddInjected(cl Class) {
	c.Injected[cl]++
	if c.Observer != nil {
		c.Observer(OpInjected, cl)
	}
}

// AddCorrected records a repaired error.
func (c *Counters) AddCorrected(cl Class) {
	c.Corrected[cl]++
	if c.Observer != nil {
		c.Observer(OpCorrected, cl)
	}
}

// AddUndetected records an upset that escaped protection.
func (c *Counters) AddUndetected(cl Class) {
	c.Undetected[cl]++
	if c.Observer != nil {
		c.Observer(OpUndetected, cl)
	}
}
