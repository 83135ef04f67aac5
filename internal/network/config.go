// Package network assembles routers, links and processing elements into
// the paper's evaluation platform (§2.2): an 8x8 mesh of 3-stage
// pipelined routers with 5 physical channels per router, 3 virtual
// channels per PC and 4-flit messages, plus the traffic, fault-injection
// and measurement machinery around it.
package network

import (
	"errors"
	"fmt"
	"math"

	"ftnoc/internal/fault"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/router"
	"ftnoc/internal/routing"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
	"ftnoc/internal/traffic"
)

// Config describes a complete simulation. NewConfig returns the paper's
// defaults; callers override fields before passing it to New.
type Config struct {
	// Topology.
	TopologyKind  topology.Kind
	Width, Height int

	// Router microarchitecture.
	VCs           int // virtual channels per physical channel
	BufDepth      int // per-VC input buffer depth T, in flits
	PipelineDepth int // 1-4 router pipeline stages

	// Protocol.
	Protection link.Protection
	Routing    routing.Algorithm
	// DuplicateRetrans doubles the retransmission buffers (§4.5) to
	// survive soft errors inside the buffers themselves
	// (Faults.RetransBuf).
	DuplicateRetrans bool

	// Protection mechanisms.
	ACEnabled       bool
	RecoveryEnabled bool
	// TMREnabled triplicates-and-votes the handshake lines (§4.6),
	// masking Faults.Handshake upsets. On by default in NewConfig.
	TMREnabled bool
	Cthres     uint64

	// Workload.
	Pattern       traffic.Pattern
	InjectionRate float64 // flits/node/cycle
	PacketSize    int     // flits per message, >= 2
	// InjectLimit stops traffic generation after this many packets have
	// been created network-wide (0 = unlimited). Burst workloads isolate
	// recovery correctness — a fixed message population must fully drain
	// (the premise of the Eq. 1 theorem) — from sustained-overload
	// behaviour.
	InjectLimit uint64

	// Fault injection: transient upset rates, plus the hard-fault
	// schedule Faults.Mortality (a fault present from boot is a death at
	// cycle 0).
	Faults fault.Rates

	// TracePIDs lists packet IDs whose journey through the network should
	// be recorded (one line per location change); the traces appear in
	// Results.Traces. Packet IDs are per PE: ID k*nodes+n+1 is node n's
	// k-th packet (from 0), so IDs 1..nodes name each PE's first packet.
	// Implemented as a consumer of the structured event bus.
	TracePIDs []uint64

	// TraceSink, when non-nil, receives every structured event the
	// simulation publishes (see package trace for the taxonomy). Wrap it
	// with trace.FilterPIDs/FilterKinds to subscribe selectively, or
	// trace.Tee to fan out. Excluded from JSON: sinks are not data.
	TraceSink trace.Sink `json:"-"`

	// Metrics, when non-nil, is the time-series registry the network
	// populates with per-router gauges (VC occupancy, retransmission
	// buffer depth, credit stalls) and samples every Metrics.Interval()
	// cycles. Excluded from JSON for the same reason as TraceSink.
	Metrics *trace.Metrics `json:"-"`

	// Invariants, when non-nil, attaches the runtime invariant checker:
	// it joins the event bus for the conservation/liveness ledger, and the
	// network walks its component state (credits, shifters, bindings,
	// quiescence) every Invariants.Every() cycles, reporting violations
	// into it. Off by default — it exists to make test, fuzz and -check
	// runs self-verifying. Excluded from JSON: checkers are not data.
	Invariants *invariant.Checker `json:"-"`

	// Measurement.
	WarmupMessages uint64
	TotalMessages  uint64 // ejected messages, including warm-up
	MaxCycles      uint64 // safety bound
	// StallCycles: abort (Stalled=true) if no message ejects for this
	// long after warm-up traffic has started. Catches unrecovered
	// deadlocks without hanging the harness.
	StallCycles uint64

	// E2ETimeout is how long an E2E/FEC source retains a packet copy for
	// possible retransmission before assuming delivery.
	E2ETimeout uint64

	Seed uint64
}

// NewConfig returns the paper's evaluation platform defaults: 8x8 mesh,
// 3 VCs/PC, 4-flit buffers and packets, 3-stage routers, XY routing, HBH
// protection, AC on, deadlock recovery on, uniform NR traffic at 0.25
// flits/node/cycle. Message counts default to a CI-friendly scale; use
// PaperScale to get the full 300k-message runs.
func NewConfig() Config {
	return Config{
		TopologyKind:    topology.Mesh,
		Width:           8,
		Height:          8,
		VCs:             3,
		BufDepth:        4,
		PipelineDepth:   3,
		Protection:      link.HBH,
		Routing:         routing.XY,
		ACEnabled:       true,
		RecoveryEnabled: true,
		TMREnabled:      true,
		Pattern:         traffic.UniformRandom,
		InjectionRate:   0.25,
		PacketSize:      4,
		Faults:          fault.Rates{LinkDouble: fault.DefaultLinkDouble},
		WarmupMessages:  2_000,
		TotalMessages:   8_000,
		MaxCycles:       2_000_000,
		StallCycles:     100_000,
		E2ETimeout:      2_048,
		Seed:            1,
	}
}

// PaperScale adjusts the message counts to the paper's 300,000 ejected
// messages with 100,000 warm-up (§2.2).
func (c Config) PaperScale() Config {
	c.WarmupMessages = 100_000
	c.TotalMessages = 300_000
	c.MaxCycles = 50_000_000
	return c
}

// ErrInvalidConfig is the sentinel wrapped by every Validate failure, so
// callers can distinguish configuration mistakes from other errors with
// errors.Is.
var ErrInvalidConfig = errors.New("invalid config")

// Validate checks the configuration, returning an error wrapping
// ErrInvalidConfig describing the first violated constraint, or nil.
// Zero values of optional fields (TopologyKind, Protection, MaxCycles,
// StallCycles, E2ETimeout) are valid: New substitutes defaults for them.
func (c Config) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidConfig, fmt.Sprintf(format, args...))
	}
	switch {
	case c.Width < 2 || c.Height < 1 || c.Width*c.Height < 2:
		return fail("topology %dx%d too small", c.Width, c.Height)
	case c.VCs < 1 || c.VCs > router.MaxVCs:
		return fail("VCs must be in [1,%d], have %d", router.MaxVCs, c.VCs)
	case c.BufDepth < 1 || c.BufDepth > router.MaxBufDepth:
		return fail("BufDepth must be in [1,%d], have %d", router.MaxBufDepth, c.BufDepth)
	case c.PacketSize < 2:
		return fail("PacketSize must be >= 2 (head + tail), have %d", c.PacketSize)
	case c.PipelineDepth < 1 || c.PipelineDepth > 4:
		return fail("PipelineDepth must be in [1,4], have %d", c.PipelineDepth)
	case !(c.InjectionRate >= 0 && c.InjectionRate <= 1): // negated form rejects NaN too
		return fail("InjectionRate must be in [0,1], have %g", c.InjectionRate)
	case c.TotalMessages == 0 || c.TotalMessages < c.WarmupMessages:
		return fail("TotalMessages must be >= WarmupMessages and > 0, have %d total / %d warm-up",
			c.TotalMessages, c.WarmupMessages)
	case c.Width*c.Height > maxNodes:
		return fail("topology %dx%d exceeds %d nodes", c.Width, c.Height, maxNodes)
	// Enumerations New would otherwise panic on.
	case c.TopologyKind > topology.Torus:
		return fail("unknown topology kind %d", c.TopologyKind)
	case c.Routing < routing.XY || c.Routing > routing.FaultAdaptive:
		return fail("unknown routing algorithm %d", c.Routing)
	case c.Pattern < traffic.UniformRandom || c.Pattern > traffic.Hotspot:
		return fail("unknown traffic pattern %d", c.Pattern)
	case c.Protection > link.FEC:
		return fail("unknown protection %d", c.Protection)
	}
	// Fault rates are probabilities; out-of-range (or NaN) values would
	// otherwise surface as panics deep inside New's injector assembly.
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"Faults.Link", c.Faults.Link}, {"Faults.LinkDouble", c.Faults.LinkDouble},
		{"Faults.RT", c.Faults.RT}, {"Faults.VA", c.Faults.VA}, {"Faults.SA", c.Faults.SA},
		{"Faults.Handshake", c.Faults.Handshake}, {"Faults.RetransBuf", c.Faults.RetransBuf},
		{"Faults.Xbar", c.Faults.Xbar},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			return fail("%s must be in [0,1], have %g", r.name, r.v)
		}
	}
	// Mortality schedules must name real links/routers and die within the
	// run: a death past MaxCycles silently never happens, which is always
	// a misconfigured experiment.
	// A negative rate is malformed even though Enabled() treats it as
	// "no hazard" — reject it rather than silently running fault-free.
	if rate := c.Faults.Mortality.HazardRate; !(rate >= 0 && rate < 1) {
		return fail("mortality hazard rate must be in [0,1), have %g", rate)
	}
	if mort := c.Faults.Mortality; mort.Enabled() {
		d := c
		d.applyDefaults()
		topo := topology.New(d.TopologyKind, c.Width, c.Height)
		for _, ld := range mort.Links {
			if int(ld.From) >= topo.Nodes() {
				return fail("mortality schedule names node %d outside the %dx%d topology", ld.From, c.Width, c.Height)
			}
			if _, ok := topo.Neighbor(ld.From, ld.Dir); !ok {
				return fail("mortality schedule names non-existent link %v from node %d", ld.Dir, ld.From)
			}
			if ld.Cycle >= d.MaxCycles {
				return fail("mortality link death at cycle %d is past MaxCycles %d", ld.Cycle, d.MaxCycles)
			}
		}
		for _, rd := range mort.Routers {
			if int(rd.Node) >= topo.Nodes() {
				return fail("mortality schedule names node %d outside the %dx%d topology", rd.Node, c.Width, c.Height)
			}
			if rd.Cycle >= d.MaxCycles {
				return fail("mortality router death at cycle %d is past MaxCycles %d", rd.Cycle, d.MaxCycles)
			}
		}
		if mort.HazardStop != 0 && mort.HazardStart > mort.HazardStop {
			return fail("mortality hazard window [%d,%d) is empty", mort.HazardStart, mort.HazardStop)
		}
		if mort.HazardRate > 0 && mort.HazardStart >= d.MaxCycles {
			return fail("mortality hazard start %d is past MaxCycles %d", mort.HazardStart, d.MaxCycles)
		}
	}
	return nil
}

// maxNodes bounds the topology size Validate accepts, so untrusted
// configuration documents (nocd request bodies) cannot demand an
// arbitrarily large allocation.
const maxNodes = 1 << 16

// applyDefaults substitutes NewConfig's values for the optional
// zero-valued fields.
func (c *Config) applyDefaults() {
	d := NewConfig()
	if c.TopologyKind == 0 {
		c.TopologyKind = d.TopologyKind
	}
	if c.Protection == 0 {
		c.Protection = d.Protection
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = d.MaxCycles
	}
	if c.StallCycles == 0 {
		c.StallCycles = d.StallCycles
	}
	if c.E2ETimeout == 0 {
		c.E2ETimeout = d.E2ETimeout
	}
}

// retentionWindow is how many packet copies each PE's E2E/FEC retention
// window holds (pe.retention), 0 when nothing is retained (HBH): the
// packets a source injects over one timeout plus one sweep interval,
// which is how long a copy can stay, capped at maxRetentionWindow.
func (c Config) retentionWindow() int {
	if !c.Protection.Retains() {
		return 0
	}
	stay := float64(c.E2ETimeout) + retentionSweepInterval
	return int(min(math.Ceil(c.InjectionRate/float64(c.PacketSize)*stay), maxRetentionWindow))
}

// maxRetentionWindow caps a PE's retention window, so that a long timeout
// in an untrusted configuration cannot make New allocate for copies its
// run may never retain; a PE that retains more grows past its window.
const maxRetentionWindow = 256

// shifterDepth returns the retransmission-buffer depth implied by the
// duplicate-buffer option.
func (c Config) shifterDepth() int {
	if c.DuplicateRetrans {
		return 2 * link.NACKWindow
	}
	return link.NACKWindow
}
