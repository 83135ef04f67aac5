// Package router implements the paper's generic virtual-channel wormhole
// router (Fig. 1) with configurable 1/2/3/4-stage pipelines (Fig. 2), the
// hop-by-hop retransmission transmitter of §3.1, the probing deadlock
// detection and retransmission-buffer recovery of §3.2, and the
// Allocation Comparator protection of §4.
package router

import (
	"fmt"

	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/routing"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
)

// DefaultCthres is the default blocked-cycle threshold before a router
// probes for deadlock (Rule 1 of §3.2.2). The paper argues the exact
// value barely matters because probing eliminates false positives; the
// default is a few packet-service times.
const DefaultCthres = 48

// MaxVCs is the most virtual channels per physical channel a router
// takes: its allocators index the ports x VCs input VCs as bits of one
// 64-bit word.
const MaxVCs = 64 / int(topology.NumPorts)

// MaxBufDepth bounds the per-VC buffer depth, so a configuration document
// cannot demand an arbitrarily large allocation per router.
const MaxBufDepth = 255

// Config parameterises one router. The zero value is not usable;
// populate every non-optional field.
type Config struct {
	// ID is this router's node identifier.
	ID flit.NodeID
	// Topo is the network shape (shared, read-only).
	Topo *topology.Topology
	// Route is the routing function, shared by every router of a network
	// (network.New passes its one routing.Memo).
	Route routing.Func
	// VCs is the number of virtual channels per physical channel
	// (3 on the paper's evaluation platform, §2.2), at most MaxVCs.
	VCs int
	// BufDepth is the per-VC input buffer capacity in flits (the
	// "transmission buffer" T of §3.2.1).
	BufDepth int
	// PipelineDepth is the number of router pipeline stages, 1-4 (§2.1).
	// The paper's platform uses 3.
	PipelineDepth int
	// ACEnabled engages the Allocation Comparator (§4.1). Disabling it is
	// the ablation showing unprotected logic faults corrupting traffic.
	ACEnabled bool
	// XYCheck engages the neighbor-side routing-consistency check that
	// catches legal-but-wrong misdirections under deterministic routing
	// (§4.2). Meaningless (and disabled) for adaptive routing.
	XYCheck bool
	// RecoveryEnabled engages probing deadlock detection and
	// retransmission-buffer recovery (§3.2).
	RecoveryEnabled bool
	// Cthres is the blocked-cycle threshold before probing (Rule 1).
	// Zero selects DefaultCthres.
	Cthres uint64

	// Fault injectors; nil disables a class.
	RTFault   *fault.LogicInjector
	VAFault   *fault.LogicInjector
	SAFault   *fault.LogicInjector
	XbarFault *fault.LogicInjector

	// Events and Counters are the shared accounting sinks (required).
	Events   *stats.Events
	Counters *fault.Counters

	// Bus is the structured event bus this router publishes to. Nil (or
	// a bus with no sinks) disables publishing at zero cost.
	Bus *trace.Bus

	// DeadSend, when non-nil, fires whenever a flit is about to go on the
	// wire toward a link Topo marks dead. Such a send is an invariant
	// breach by construction — the boundary kill sweeps destroy every worm
	// crossing a link in the same step that fails it in Topo — so the
	// network wires this to the invariant checker. Observation only: the
	// flit is still sent (and self-drains downstream), keeping the
	// failure observable rather than masked.
	DeadSend func(cycle uint64, node flit.NodeID, port topology.Port, vc int, pid uint64)
}

func (c *Config) validate() {
	switch {
	case c.Topo == nil:
		panic("router: Config.Topo is required")
	case c.Route == nil:
		panic("router: Config.Route is required")
	case c.VCs < 1 || c.VCs > MaxVCs:
		panic(fmt.Sprintf("router: VCs must be in [1,%d]", MaxVCs))
	case c.BufDepth < 1 || c.BufDepth > MaxBufDepth:
		panic(fmt.Sprintf("router: BufDepth must be in [1,%d]", MaxBufDepth))
	case c.PipelineDepth < 1 || c.PipelineDepth > 4:
		panic("router: PipelineDepth must be in [1,4]")
	case c.Events == nil || c.Counters == nil:
		panic("router: Events and Counters are required")
	}
	if c.Cthres == 0 {
		c.Cthres = DefaultCthres
	}
}

// vaOffset returns how many cycles after a header reaches the buffer
// front the VC allocator may first consider it, per pipeline depth: the
// stages in front of VA (§2.1 / Fig. 2).
func vaOffset(depth int) uint64 {
	switch depth {
	case 4:
		return 2 // dedicated RT stage, then VA
	case 3, 2:
		return 1 // look-ahead routing folds RT into arrival
	default:
		return 0 // single-stage router: fully parallel
	}
}

// saAfterVA reports whether switch allocation occupies the stage after VC
// allocation (depths 3-4) or is speculated in the same stage (depths 1-2,
// the Peh-Dally speculative architecture [15]).
func saAfterVA(depth int) bool { return depth >= 3 }
