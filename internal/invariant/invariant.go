// Package invariant is the simulator's runtime verification layer: a
// trace.Sink that audits the event stream against global conservation
// and protocol laws, plus a reporting surface the network's per-cycle
// state walker feeds structural violations into.
//
// The checks fall into two families:
//
//   - Event-driven (this package, via Emit): packet conservation — every
//     injected packet is eventually ejected, terminally dropped with a
//     recorded reason, or still resident when the run ends — plus event
//     monotonicity, ejection validity (right destination), the verdict
//     law (at most one final verdict per message), the retransmission
//     bound (replays cannot outnumber link-error NACKs times the shifter
//     depth), replay (no hop NACKs one flit over ReplayLimit times in a
//     row), and recovery liveness.
//
//   - State-driven (package network, via Report): per-VC credit
//     conservation, retransmission-buffer window soundness, VA-binding
//     consistency, probe-memory bounds, quiescence safety, port-mask
//     soundness (CheckPortMarks) and allocator-mask exactness
//     ("vc-masks"). Those need access to live component
//     state, so the network walks its own structures and reports what it
//     finds here.
//
// The checker is wired through Config.Invariants / the -check CLI flags
// and is off by default: it exists to make test and fuzz runs
// self-verifying, not to tax production sweeps.
package invariant

import (
	"fmt"
	"math"

	"ftnoc/internal/link"
	"ftnoc/internal/trace"
)

// Violation is one detected invariant breach, with enough context to
// localise it: which check, when, and where.
type Violation struct {
	Check string // stable check identifier (e.g. "conservation", "credits")
	Cycle uint64
	Node  int32 // -1 when not attributable
	Port  int8  // -1 when not attributable
	VC    int8  // -1 when not attributable
	PID   uint64
	Msg   string
}

// Error implements error.
func (v Violation) Error() string {
	s := fmt.Sprintf("invariant %q violated at cycle %d", v.Check, v.Cycle)
	if v.Node >= 0 {
		s += fmt.Sprintf(" node %d", v.Node)
	}
	if v.Port >= 0 {
		s += fmt.Sprintf(" port %d", v.Port)
	}
	if v.VC >= 0 {
		s += fmt.Sprintf(" vc %d", v.VC)
	}
	if v.PID != 0 {
		s += fmt.Sprintf(" pid %d", v.PID)
	}
	return s + ": " + v.Msg
}

// Config tunes a Checker. The zero value is usable: every-cycle state
// audits, 100 recorded violations and a 2^17-cycle recovery bound. The
// retransmission bound uses the paper's shifter depth, link.NACKWindow.
type Config struct {
	// Every is the state-audit stride: the network walks component state
	// (credits, shifters, bindings, quiescence) every Every cycles.
	// 0 means every cycle.
	Every uint64
	// Limit caps recorded violations so a systemic breach cannot OOM the
	// run. 0 means 100. Counting continues past the cap.
	Limit int
	// RecoveryBound is the maximum cycles a deadlock-recovery episode may
	// stay open before it is declared a livelock. 0 means 1<<17.
	RecoveryBound uint64
	// OnViolation, when non-nil, runs synchronously on every violation
	// (recorded or past the cap) — e.g. a test's t.Errorf.
	OnViolation func(Violation)
}

func (c Config) withDefaults() Config {
	if c.Every == 0 {
		c.Every = 1
	}
	if c.Limit == 0 {
		c.Limit = 100
	}
	if c.RecoveryBound == 0 {
		c.RecoveryBound = 1 << 17
	}
	return c
}

// ReplayLimit is the replay law's bound: a hop may NACK the same flit
// this many times in a row. A replay that fails its check again is a
// fresh link error with probability about the error rate, so a longer
// run means the hop is replaying a copy that can never pass (§4.5).
const ReplayLimit = 8

// hopVC names one input VC of one router: a hop's receiving end.
type hopVC struct {
	node     int32
	port, vc int8
}

// replayRun is the flit a hop VC last NACKed and how often in a row.
type replayRun struct {
	pid uint64
	seq uint8
	n   int
}

// pidState tracks one injected packet through the ledger.
type pidState struct {
	src      int32
	dst      int32
	verdicts uint8 // final verdicts seen (saturating): the verdict law allows one
	dropped  bool  // terminal drop reason recorded
}

// Checker audits a simulation run. Attach it to the run's event bus
// (it implements trace.Sink) and, for the state-driven checks, let the
// network call Report; after the run, Finalize closes the conservation
// ledger and Err reports the verdict. Not safe for concurrent use — one
// checker per run, like the bus it listens to.
type Checker struct {
	cfg Config

	violations []Violation
	total      int

	// Conservation ledger.
	ledger   map[uint64]*pidState
	injected uint64
	ejected  uint64
	dropped  uint64

	// Liveness and bounds.
	episodes    map[int32]uint64 // node -> RecoveryBegin cycle
	linkNACKs   uint64
	retransmits uint64
	boundTrip   bool // retransmission bound already reported
	replays     map[hopVC]replayRun

	lastCycle uint64
	events    uint64
}

// New creates a checker with the given configuration.
func New(cfg Config) *Checker {
	return &Checker{
		cfg:      cfg.withDefaults(),
		ledger:   make(map[uint64]*pidState),
		episodes: make(map[int32]uint64),
		replays:  make(map[hopVC]replayRun),
	}
}

// Every returns the configured state-audit stride (>= 1).
func (c *Checker) Every() uint64 { return c.cfg.Every }

// RecoveryBound returns the configured livelock bound.
func (c *Checker) RecoveryBound() uint64 { return c.cfg.RecoveryBound }

// Report records a violation found by an external state walker.
func (c *Checker) Report(v Violation) {
	c.total++
	if len(c.violations) < c.cfg.Limit {
		c.violations = append(c.violations, v)
	}
	if c.cfg.OnViolation != nil {
		c.cfg.OnViolation(v)
	}
}

func (c *Checker) reportf(check string, cycle uint64, node int32, port, vc int8, pid uint64, format string, args ...any) {
	c.Report(Violation{
		Check: check, Cycle: cycle, Node: node, Port: port, VC: vc, PID: pid,
		Msg: fmt.Sprintf(format, args...),
	})
}

// Emit implements trace.Sink: the event-driven checks.
func (c *Checker) Emit(e trace.Event) {
	c.events++
	if e.Cycle < c.lastCycle {
		c.reportf("monotonic", e.Cycle, e.Node, e.Port, e.VC, e.PID,
			"%v event at cycle %d after cycle %d", e.Kind, e.Cycle, c.lastCycle)
	} else {
		c.lastCycle = e.Cycle
	}

	switch e.Kind {
	case trace.FlitInjected:
		if _, dup := c.ledger[e.PID]; dup {
			c.reportf("conservation", e.Cycle, e.Node, e.Port, e.VC, e.PID,
				"packet id injected twice")
			return
		}
		c.ledger[e.PID] = &pidState{src: e.Node, dst: int32(e.Aux)}
		c.injected++

	case trace.FlitEjected:
		st, ok := c.ledger[e.PID]
		if !ok {
			c.reportf("conservation", e.Cycle, e.Node, e.Port, e.VC, e.PID,
				"ejected packet was never injected")
			return
		}
		if !c.verdict(e, st, true) {
			return
		}
		if e.Node != st.dst {
			c.reportf("conservation", e.Cycle, e.Node, e.Port, e.VC, e.PID,
				"packet for node %d ejected at node %d", st.dst, e.Node)
		}
		c.ejected++

	case trace.FlitDropped:
		if e.Aux == trace.DropNACK {
			c.noteReplay(e)
		}
		// Transient reasons (drop window, NACK, misroute) leave a live
		// retransmission copy upstream; only terminal reasons account for
		// a packet in the conservation ledger, and those that are
		// verdicts answer to the verdict law too.
		switch e.Aux {
		case trace.DropStray, trace.DropWormhole, trace.DropSALost,
			trace.DropCorrupt, trace.DropEvicted,
			trace.DropLinkDead, trace.DropUnreachable:
			st, ok := c.ledger[e.PID]
			if !ok {
				return
			}
			if trace.IsVerdict(e.Aux) {
				c.verdict(e, st, e.Aux != trace.DropCorrupt)
			}
			if !st.dropped {
				st.dropped = true
				c.dropped++
			}
		}

	case trace.NACKSent:
		if e.Aux == uint64(link.NACKLinkError) {
			c.linkNACKs++
		}

	case trace.Retransmit:
		c.retransmits++
		if bound := c.linkNACKs * link.NACKWindow; c.retransmits > bound && !c.boundTrip {
			c.boundTrip = true
			c.reportf("retrans-bound", e.Cycle, e.Node, e.Port, e.VC, e.PID,
				"%d retransmissions exceed %d link-error NACKs x shifter depth %d",
				c.retransmits, c.linkNACKs, link.NACKWindow)
		}

	case trace.RecoveryBegin:
		if begin, open := c.episodes[e.Node]; open {
			c.reportf("recovery-liveness", e.Cycle, e.Node, e.Port, e.VC, 0,
				"recovery begun while episode from cycle %d still open", begin)
		}
		c.episodes[e.Node] = e.Cycle

	case trace.RecoveryEnd:
		if _, open := c.episodes[e.Node]; !open {
			c.reportf("recovery-liveness", e.Cycle, e.Node, e.Port, e.VC, 0,
				"recovery ended with no open episode")
			return
		}
		delete(c.episodes, e.Node)
	}
}

// verdict applies the verdict law to a verdict event of an injected data
// message (a control PID has no ledger entry, so its verdicts are not
// seen): at most one final verdict, an ejection or a DropEvicted,
// DropLinkDead or DropUnreachable drop, and nothing after it. A
// DropCorrupt (final false) is final only when nothing follows it, so
// under E2E/FEC it may precede the final verdict but never follows one.
// It reports whether no final verdict came before e.
func (c *Checker) verdict(e trace.Event, st *pidState, final bool) bool {
	first := st.verdicts == 0
	if !first {
		what := "ejection"
		if e.Kind == trace.FlitDropped {
			what = fmt.Sprintf("drop (reason %d)", e.Aux)
		}
		c.reportf("verdict", e.Cycle, e.Node, e.Port, e.VC, e.PID,
			"%s after the packet's final verdict", what)
	}
	if final && st.verdicts < math.MaxUint8 {
		st.verdicts++
	}
	return first
}

// noteReplay applies the replay law to one link-error NACK drop: it
// reports once when the hop VC has NACKed the same (PID, Seq) more than
// ReplayLimit times in a row.
func (c *Checker) noteReplay(e trace.Event) {
	k := hopVC{e.Node, e.Port, e.VC}
	run := c.replays[k]
	if run.pid != e.PID || run.seq != e.Seq {
		run.pid, run.seq, run.n = e.PID, e.Seq, 0
	}
	run.n++
	c.replays[k] = run
	if run.n == ReplayLimit+1 {
		c.reportf("replay", e.Cycle, e.Node, e.Port, e.VC, e.PID,
			"flit seq %d NACKed %d times in a row on this hop: its replay can never pass", e.Seq, run.n)
	}
}

// PortMarks is one router port at a cycle boundary: the three mask bits
// the router's tick is driven by, beside independent counts of what each
// bit summarises, taken from the wires and the transmitter themselves.
// A router polls a port only when its bit is set, so the law is one-way:
// a clear bit promises there is nothing to poll for. A set bit over an
// empty port is merely a wasted poll.
type PortMarks struct {
	RxPending, TxPending, TxReplay bool

	Flits  int // flits visible on the port's input wire
	NACKs  int // NACKs visible on the output's backward wire
	Replay int // replay-queue flits in the transmitter
}

// CheckPortMarks asserts mask soundness for one port: a clear rxPending
// bit means no visible flit, a clear txPending bit no visible NACK
// (credits are counters, not arrivals, and are no part of the law), and
// a clear txReplay bit an empty replay queue. A violation means a
// delivery or a NACK drain failed to mark the mask, and the router would
// never service that traffic.
func (c *Checker) CheckPortMarks(cycle uint64, node int32, port int8, m PortMarks) {
	if !m.RxPending && m.Flits > 0 {
		c.reportf("port-masks", cycle, node, port, -1, 0,
			"rxPending clear with %d flit(s) visible on the input wire", m.Flits)
	}
	if !m.TxPending && m.NACKs > 0 {
		c.reportf("port-masks", cycle, node, port, -1, 0,
			"txPending clear with %d NACK(s) visible on the backward wire", m.NACKs)
	}
	if !m.TxReplay && m.Replay > 0 {
		c.reportf("port-masks", cycle, node, port, -1, 0,
			"txReplay clear with %d flit(s) in the replay queue", m.Replay)
	}
}

// CheckEpisodes asserts no open deadlock-recovery episode has outlived
// the livelock bound. The network's per-cycle audit calls this; it is
// O(open episodes), which is almost always zero.
func (c *Checker) CheckEpisodes(cycle uint64) {
	for node, begin := range c.episodes {
		if cycle > begin && cycle-begin > c.cfg.RecoveryBound {
			c.reportf("recovery-liveness", cycle, node, -1, -1, 0,
				"recovery episode open since cycle %d (%d cycles > bound %d)",
				begin, cycle-begin, c.cfg.RecoveryBound)
			// Re-arm so a genuine livelock reports once per bound, not
			// once per audit.
			c.episodes[node] = cycle
		}
	}
}

// Finalize closes the conservation ledger at the end of a run. clean
// reports whether the run terminated normally (all traffic delivered or
// accounted, no stall/abort); resident holds the packet ids still
// physically present in the network (buffers, shifters, wires, PE
// queues), which a stalled run legitimately strands. On a clean run
// every injected packet must be ejected, terminally dropped, or
// resident; open recovery episodes are livelocks.
func (c *Checker) Finalize(cycle uint64, clean bool, resident map[uint64]bool) {
	if !clean {
		return
	}
	for pid, st := range c.ledger {
		if st.verdicts > 0 || st.dropped || resident[pid] {
			continue
		}
		c.reportf("conservation", cycle, st.src, -1, -1, pid,
			"packet for node %d vanished: not ejected, not dropped, not resident", st.dst)
	}
	for node, begin := range c.episodes {
		c.reportf("recovery-liveness", cycle, node, -1, -1, 0,
			"recovery episode open since cycle %d at end of run", begin)
	}
}

// Violations returns the recorded violations (capped at Config.Limit).
func (c *Checker) Violations() []Violation { return c.violations }

// Total returns the number of violations detected, including any past
// the recording cap.
func (c *Checker) Total() int { return c.total }

// Stats returns the ledger tallies: packets injected, cleanly ejected,
// and terminally dropped, plus events audited.
func (c *Checker) Stats() (injected, ejected, dropped, events uint64) {
	return c.injected, c.ejected, c.dropped, c.events
}

// Err returns nil when no violation was detected, or an error naming
// the first violation and the total count.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	if len(c.violations) == 0 {
		return fmt.Errorf("%d invariant violations (recording disabled)", c.total)
	}
	if c.total == 1 {
		return c.violations[0]
	}
	return fmt.Errorf("%d invariant violations, first: %w", c.total, c.violations[0])
}
