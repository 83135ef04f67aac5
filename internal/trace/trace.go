// Package trace is the simulator's structured observability layer: a
// typed event bus that every component publishes microarchitectural
// events to, plus a time-series metrics registry of per-router gauges.
//
// Design constraints:
//
//   - Zero cost when disabled. Publishers guard every emission with
//     Bus.Enabled(), which inlines to a nil/empty check, and Event is a
//     flat value type, so a disabled bus adds no allocations and no
//     measurable overhead to the simulation hot path (guarded by
//     TestDisabledBusZeroAlloc here and network's
//     BenchmarkKernelSteadyMetrics). Tracing therefore stays
//     compiled in unconditionally.
//   - One pathway. Everything that observes the simulation — NDJSON
//     event streams, Chrome trace_event exports, the human-readable
//     packet-journey renderer — is a Sink attached to the same Bus, so
//     instrumentation never forks into bespoke side channels.
//   - No upward dependencies. The package imports nothing from the
//     simulator, so every layer (link, router, network) can publish.
package trace

import "fmt"

// Kind classifies a structured event. The taxonomy covers the flit
// lifecycle, the fault-tolerance protocols, the fault injectors and the
// campaign engine's span timeline; see the constant docs for the
// publisher of each kind.
type Kind uint8

// Event kinds.
const (
	// FlitInjected: a packet entered its source PE's injection queue.
	// Node is the source; Aux is the destination node.
	FlitInjected Kind = iota + 1
	// FlitBuffered: a flit was written into an input VC buffer.
	FlitBuffered
	// FlitDequeued: a flit left a router's input VC storage (toward the
	// crossbar, or dropped as a stray). Aux bit 0 set means it came from
	// the credited buffer rather than the parked/pending queue; bit 1
	// set means it was dropped as a stray rather than switched.
	FlitDequeued
	// FlitParked: deadlock recovery moved a flit from an input VC buffer
	// into the retransmission shifter's parking space (§3.2.1).
	FlitParked
	// FlitRecalled: a misroute NACK recalled a flit from a
	// retransmission buffer back into its input VC's pending queue
	// (§4.2).
	FlitRecalled
	// FlitEjected: a packet's tail was consumed cleanly at its
	// destination PE. Node is the destination.
	FlitEjected
	// RouteComputed: the routing unit produced a candidate set for the
	// packet resident in (Node, Port, VC) — including re-routes after
	// misroute detection.
	RouteComputed
	// VCAllocated: the VC allocator committed an output binding. Port
	// and VC name the granted output.
	VCAllocated
	// ACMismatch: the Allocation Comparator invalidated an allocation.
	// Aux 0 = VA stage, 1 = SA stage.
	ACMismatch
	// NACKSent: a receiver raised a NACK handshake. Aux is the
	// link.NACKKind code.
	NACKSent
	// Retransmit: a transmitter re-sent a flit from its retransmission
	// buffer after a link-error NACK (§3.1).
	Retransmit
	// ECCCorrected: a SEC/DED unit corrected a single-bit error.
	ECCCorrected
	// ProbeSent: the deadlock detector emitted a control flit from
	// (Node, Port, VC). Aux 0 = probe, 1 = activation (§3.2.2).
	ProbeSent
	// RecoveryBegin / RecoveryEnd bracket a router's deadlock-recovery
	// episode (§3.2.1).
	RecoveryBegin
	RecoveryEnd
	// FaultInjected / FaultCorrected / FaultUndetected mirror the fault
	// accounting of package fault. Aux is the fault.Class code; Node is
	// -1 (the counters are network-global).
	FaultInjected
	FaultCorrected
	FaultUndetected
	// FlitDropped: a flit (or, for the terminal reasons, a whole packet)
	// left the network without reaching its destination cleanly. Aux is a
	// Drop* reason code. Emitted at every discard site — receiver drop
	// windows, NACK drops, misroute force-drops, stray/wormhole drops,
	// uncaught switch-allocation losses, corrupt deliveries and retention
	// evictions — so a conservation checker can account for every packet.
	FlitDropped

	// Campaign span-timeline kinds (package campaign). Unlike every kind
	// above, their Cycle field carries wall-clock microseconds since the
	// campaign started, not a simulated cycle — they describe the
	// engine's schedule, not the simulated network — so the hierarchy
	// campaign → point → replicate renders as nested spans in the Chrome
	// exporter (worker lanes included; see ChromeTrace).
	//
	// CampaignBegin / CampaignEnd bracket the whole run. Begin: Aux is
	// the point count, Aux2 the total replicate count. End: Aux is the
	// replicates that ran, Aux2 is 1 if the campaign was aborted.
	CampaignBegin
	CampaignEnd
	// CampaignPointBegin / CampaignPointEnd bracket a grid point's wall
	// window, from its first replicate's dispatch to its last
	// replicate's retirement. Aux is the point index; End's Aux2 counts
	// the point's failed replicates.
	CampaignPointBegin
	CampaignPointEnd
	// CampaignRepBegin / CampaignRepEnd bracket one replicate on its
	// worker: Node is the worker index (-1 when a fabric coordinator
	// re-emits a merged row), PID the replicate index and Aux the point
	// index. Begin's Aux2 is the derived simulation seed; End's Aux2 is
	// the replicate's simulated cycles and its Seq a RepStatus* code.
	// These are the engine's only per-replicate progress events.
	CampaignRepBegin
	CampaignRepEnd

	// Hard-fault kinds (the progressive-mortality regime).
	//
	// LinkDied: the directed link (Node, Port) hard-failed at Cycle —
	// emitted by the reconfiguration controller at the death boundary,
	// before any same-cycle actor event. Aux counts the flits destroyed
	// with it.
	LinkDied
	// RouterDied: router Node hard-failed at Cycle (its PE stops
	// generating and all incident links die alongside, each with its own
	// LinkDied event). Aux counts every flit destroyed with it, those of
	// its links' events included.
	RouterDied

	numKinds
)

// Seq values for CampaignRepEnd.
const (
	RepStatusOK      uint8 = 0
	RepStatusError   uint8 = 1
	RepStatusAborted uint8 = 2
)

// RepStatusOf is the RepStatus* code of a replicate that failed or was
// aborted (or neither); a failure wins over an abort.
func RepStatusOf(failed, aborted bool) uint8 {
	switch {
	case failed:
		return RepStatusError
	case aborted:
		return RepStatusAborted
	}
	return RepStatusOK
}

// String implements fmt.Stringer with stable kebab-case names (they are
// part of the NDJSON output format).
func (k Kind) String() string {
	switch k {
	case FlitInjected:
		return "flit-injected"
	case FlitBuffered:
		return "flit-buffered"
	case FlitDequeued:
		return "flit-dequeued"
	case FlitParked:
		return "flit-parked"
	case FlitRecalled:
		return "flit-recalled"
	case FlitEjected:
		return "flit-ejected"
	case RouteComputed:
		return "route-computed"
	case VCAllocated:
		return "vc-allocated"
	case ACMismatch:
		return "ac-mismatch"
	case NACKSent:
		return "nack-sent"
	case Retransmit:
		return "retransmit"
	case ECCCorrected:
		return "ecc-corrected"
	case ProbeSent:
		return "probe-sent"
	case RecoveryBegin:
		return "recovery-begin"
	case RecoveryEnd:
		return "recovery-end"
	case FaultInjected:
		return "fault-injected"
	case FaultCorrected:
		return "fault-corrected"
	case FaultUndetected:
		return "fault-undetected"
	case FlitDropped:
		return "flit-dropped"
	case CampaignBegin:
		return "campaign-begin"
	case CampaignEnd:
		return "campaign-end"
	case CampaignPointBegin:
		return "campaign-point-begin"
	case CampaignPointEnd:
		return "campaign-point-end"
	case CampaignRepBegin:
		return "campaign-rep-begin"
	case CampaignRepEnd:
		return "campaign-rep-end"
	case LinkDied:
		return "link-died"
	case RouterDied:
		return "router-died"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Aux values for FlitDequeued.
const (
	DequeuedFromBuffer uint64 = 1 << 0 // credited buffer slot (vs pending queue)
	DequeuedStray      uint64 = 1 << 1 // dropped as a stray, not switched
)

// Aux values for ACMismatch and ProbeSent.
const (
	AuxVA         uint64 = 0
	AuxSA         uint64 = 1
	AuxProbe      uint64 = 0
	AuxActivation uint64 = 1
)

// Aux reason codes for FlitDropped. Transient reasons mean the flit has a
// live retransmission copy upstream (the packet is still in flight);
// terminal reasons mean this copy of the packet can only be recovered
// end-to-end, if at all.
const (
	// DropWindow: discarded inside a receiver's post-NACK drop window
	// (transient — the transmitter's shifter replays it).
	DropWindow uint64 = iota + 1
	// DropNACK: the uncorrectable flit that raised a link-error NACK
	// (transient — drained into the replay queue).
	DropNACK
	// DropMisroute: force-dropped by the §4.2 arrival-direction check
	// (transient — recalled from the shifter and re-routed).
	DropMisroute
	// DropStray: a non-head flit arrived at an idle VC with no wormhole
	// (terminal for the flit; only unprotected logic faults cause it).
	DropStray
	// DropWormhole: arrived at a full buffer after corrupted wormhole
	// state defeated flow control (terminal for the flit).
	DropWormhole
	// DropSALost: an uncaught switch-allocation corruption sent the flit
	// nowhere usable (terminal for the flit).
	DropSALost
	// DropCorrupt: the packet completed at its destination but failed the
	// end check (terminal unless an E2E/FEC retransmission revives it).
	DropCorrupt
	// DropEvicted: an E2E/FEC retransmission request arrived after the
	// retained copy timed out — the packet is unrecoverable.
	DropEvicted
	// DropLinkDead: the packet occupied (or was in flight on) a link that
	// hard-failed; the reconfiguration controller destroyed the whole
	// worm at the death boundary (terminal — the packet counts as
	// undeliverable, never as lost in transit).
	DropLinkDead
	// DropUnreachable: the packet's destination is unreachable on the
	// surviving topology — detected at injection admission or by the
	// controller's wedge sweep (terminal; counted as undeliverable).
	DropUnreachable
)

// Event is one structured record. It is a flat value type — publishing
// one allocates nothing. Fields not meaningful for a Kind are zero;
// Node/Port/VC use -1 for "not attributable".
type Event struct {
	Cycle uint64
	Kind  Kind
	Node  int32 // router / PE node id
	Port  int8  // physical channel index (topology.Port), -1 if n/a
	VC    int8  // virtual channel index, -1 if n/a
	Seq   uint8 // flit sequence within its packet
	PID   uint64
	Aux   uint64 // kind-specific detail (see the Kind docs)
	Aux2  uint64 // second kind-specific detail; zero for most kinds
}

// Sink consumes events. Implementations must not assume any ordering
// beyond: events arrive in emission order, and Cycle is non-decreasing.
type Sink interface {
	Emit(Event)
}

// Bus fans events out to its sinks. The zero value and the nil pointer
// are both valid, disabled buses.
type Bus struct {
	sinks []Sink
}

// NewBus returns an empty (disabled) bus.
func NewBus() *Bus { return &Bus{} }

// Attach adds a sink. Attaching enables the bus.
func (b *Bus) Attach(s Sink) {
	if s != nil {
		b.sinks = append(b.sinks, s)
	}
}

// Enabled reports whether any sink is attached. Publishers must guard
// every Emit with it; the method is small enough to inline, which is
// what keeps the disabled path free.
func (b *Bus) Enabled() bool { return b != nil && len(b.sinks) > 0 }

// Emit delivers e to every sink.
func (b *Bus) Emit(e Event) {
	for _, s := range b.sinks {
		s.Emit(e)
	}
}

// multiSink fans one stream into several (for CLI use where one run
// feeds both an NDJSON file and a Chrome trace).
type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Tee combines sinks into one. Nil entries are dropped; a single
// non-nil sink is returned unwrapped.
func Tee(sinks ...Sink) Sink {
	var kept multiSink
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// FilterPIDs wraps a sink, passing only events whose PID is in pids
// (events without packet attribution — recovery episodes, fault
// accounting — are dropped too, since their PID field is zero).
func FilterPIDs(s Sink, pids []uint64) Sink {
	set := make(map[uint64]bool, len(pids))
	for _, p := range pids {
		set[p] = true
	}
	return pidFilter{set: set, next: s}
}

type pidFilter struct {
	set  map[uint64]bool
	next Sink
}

func (f pidFilter) Emit(e Event) {
	if f.set[e.PID] {
		f.next.Emit(e)
	}
}

// FilterKinds wraps a sink, passing only events of the given kinds.
func FilterKinds(s Sink, kinds ...Kind) Sink {
	var mask uint32
	for _, k := range kinds {
		mask |= 1 << k
	}
	return kindFilter{mask: mask, next: s}
}

type kindFilter struct {
	mask uint32
	next Sink
}

func (f kindFilter) Emit(e Event) {
	if f.mask&(1<<e.Kind) != 0 {
		f.next.Emit(e)
	}
}
