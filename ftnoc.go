// Package ftnoc is a cycle-accurate simulator of fault-tolerant
// network-on-chip architectures, reproducing "Exploring Fault-Tolerant
// Network-on-Chip Architectures" (Park, Nicopoulos, Kim, Vijaykrishnan,
// Das — DSN 2006).
//
// The library models the paper's full system: a mesh/torus of pipelined
// virtual-channel wormhole routers with SEC/DED-protected links, the
// flit-based hop-by-hop retransmission scheme (§3.1), probing deadlock
// detection with retransmission-buffer recovery (§3.2), the Allocation
// Comparator protecting VA/SA/RT logic from single-event upsets (§4), the
// end-to-end and FEC-only baselines, and an area/power model calibrated
// to the paper's 90 nm synthesis results.
//
// Quick start:
//
//	cfg := ftnoc.NewConfig()          // the paper's 8x8 platform
//	cfg.Faults.Link = 1e-3            // inject link soft errors
//	res := ftnoc.Run(cfg)
//	fmt.Println(res.AvgLatency, ftnoc.EnergyPerMessageNJ(res))
//
// The package is a facade over the internal implementation packages; all
// simulation state lives in the value returned by New, so concurrent
// simulations are independent.
package ftnoc

import (
	"context"
	"io"

	"ftnoc/internal/deadlock"
	"ftnoc/internal/fault"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/power"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
	"ftnoc/internal/traffic"
)

// Config parameterises a simulation. Obtain defaults from NewConfig and
// override fields; see the field documentation on the underlying type.
type Config = network.Config

// Results is the measurement record of a completed run.
type Results = network.Results

// FaultRates configures per-operation fault-injection probabilities.
type FaultRates = fault.Rates

// FaultClass identifies which router component a fault upsets.
type FaultClass = fault.Class

// Fault classes (Fig. 13's three error situations plus VA).
const (
	LinkError      = fault.LinkError
	RTLogic        = fault.RTLogic
	VALogic        = fault.VALogic
	SALogic        = fault.SALogic
	HandshakeError = fault.HandshakeError
)

// Protection selects the link-error handling scheme (Fig. 5).
type Protection = link.Protection

// Link protection schemes.
const (
	HBH = link.HBH
	E2E = link.E2E
	FEC = link.FEC
)

// Routing selects the routing algorithm.
type Routing = routing.Algorithm

// Routing algorithms. XY is the paper's deterministic baseline (DT);
// MinimalAdaptive is the adaptive one (AD). FaultAdaptive is the
// up*/down* fault-tolerant algorithm that reroutes around dead links
// and routers (required for graceful degradation under Mortality).
const (
	XY              = routing.XY
	MinimalAdaptive = routing.MinimalAdaptive
	WestFirst       = routing.WestFirst
	OddEven         = routing.OddEven
	FaultAdaptive   = routing.FaultAdaptive
)

// Pattern selects the traffic destination distribution.
type Pattern = traffic.Pattern

// Traffic patterns (§2.2 uses NR, BC and TN).
const (
	UniformRandom = traffic.UniformRandom
	BitComplement = traffic.BitComplement
	Tornado       = traffic.Tornado
	Transpose     = traffic.Transpose
	Shuffle       = traffic.Shuffle
	Hotspot       = traffic.Hotspot
)

// KernelStats is the scheduler's cumulative counter record (actor ticks
// executed, ticks skipped relative to ticking every actor every cycle,
// ticks dispatched to actors that may sleep), returned by
// Network.KernelStats.
type KernelStats = sim.Stats

// TopologyKind selects the network shape.
type TopologyKind = topology.Kind

// Topology kinds.
const (
	Mesh  = topology.Mesh
	Torus = topology.Torus
)

// Mortality schedules hard faults: link and router deaths at fixed
// cycles plus an optional per-cycle hazard process. A fault present from
// boot is a death at cycle 0 ("link:5E@0"). Set it on
// Config.Faults.Mortality; pair with the FaultAdaptive routing algorithm
// to study graceful degradation.
type Mortality = fault.Mortality

// Port identifies a router's physical channel.
type Port = topology.Port

// Router ports.
const (
	Local = topology.Local
	North = topology.North
	East  = topology.East
	South = topology.South
	West  = topology.West
)

// Network is a fully assembled simulation instance, for callers that step
// the kernel or inspect routers before Run; most callers should use Run.
// Run gives its memory to the next build: after it, Routers, Kernel,
// Snapshot and a second Run panic.
type Network = network.Network

// Observability. The simulator publishes typed microarchitectural events
// (flit lifecycle, NACKs, retransmissions, ECC corrections, AC
// mismatches, deadlock probes and recovery episodes, fault accounting)
// to a structured event bus; attach a sink via Config.TraceSink to
// consume them, and a Metrics registry via Config.Metrics for sampled
// per-router gauges. See package internal/trace for the event taxonomy.

// TraceEvent is one structured observability record.
type TraceEvent = trace.Event

// TraceKind classifies a TraceEvent.
type TraceKind = trace.Kind

// TraceSink consumes structured events (Config.TraceSink).
type TraceSink = trace.Sink

// Metrics is the sampled time-series registry (Config.Metrics).
type Metrics = trace.Metrics

// NewNDJSONTrace returns a sink streaming events to w as NDJSON, one
// fixed-field-order JSON object per line. Close it to flush.
func NewNDJSONTrace(w io.Writer) *trace.NDJSON { return trace.NewNDJSON(w) }

// NewChromeTrace returns a sink writing the Chrome trace_event format
// (load into Perfetto / chrome://tracing): one "process" per router, one
// "thread" per port. Close it to terminate the JSON.
func NewChromeTrace(w io.Writer) *trace.ChromeTrace { return trace.NewChromeTrace(w) }

// NewMetrics returns a registry that samples its gauges every interval
// cycles, streaming NDJSON rows to w. Close it to flush.
func NewMetrics(w io.Writer, interval uint64) *Metrics { return trace.NewMetrics(w, interval) }

// TeeTrace fans one event stream into several sinks.
func TeeTrace(sinks ...TraceSink) TraceSink { return trace.Tee(sinks...) }

// FilterTracePIDs wraps a sink, passing only events about the given
// packet IDs.
func FilterTracePIDs(s TraceSink, pids []uint64) TraceSink { return trace.FilterPIDs(s, pids) }

// FilterTraceKinds wraps a sink, passing only events of the given kinds.
func FilterTraceKinds(s TraceSink, kinds ...TraceKind) TraceSink {
	return trace.FilterKinds(s, kinds...)
}

// Verification. The simulator carries a runtime invariant checker that
// audits a run while it executes: flit conservation (every injected
// packet is delivered, terminally dropped, or still resident), credit
// flow-control conservation on every link, retransmission-buffer
// soundness, ECC consistency, deadlock-recovery liveness, and
// quiescence safety. Attach one via Config.Invariants (one checker per
// run — checkers are stateful) and inspect it after Run; the nocsim
// -check flag is the CLI form.

// InvariantChecker audits a single run against the simulator's
// structural invariants (Config.Invariants).
type InvariantChecker = invariant.Checker

// InvariantConfig tunes an InvariantChecker; the zero value is the
// recommended default (audit every cycle, record up to 100 violations).
type InvariantConfig = invariant.Config

// InvariantViolation is one recorded invariant failure, with the cycle
// and component it was attributed to. It implements error.
type InvariantViolation = invariant.Violation

// NewInvariantChecker returns a fresh checker for a single run.
func NewInvariantChecker(cfg InvariantConfig) *InvariantChecker { return invariant.New(cfg) }

// ReadConfig parses a JSON configuration (as written by Config.WriteJSON);
// absent fields keep NewConfig defaults.
func ReadConfig(r io.Reader) (Config, error) { return network.ReadConfig(r) }

// NewConfig returns the paper's evaluation platform defaults (§2.2):
// 8x8 mesh, 3-stage pipelined routers, 3 VCs per physical channel,
// 4-flit messages, XY routing, HBH protection, AC and deadlock recovery
// enabled, uniform traffic at 0.25 flits/node/cycle.
func NewConfig() Config { return network.NewConfig() }

// ErrInvalidConfig is the sentinel wrapped by every Config.Validate
// failure; test with errors.Is. New and Run still panic on invalid
// configurations (construction is programmer-driven); callers handling
// generated or user-supplied configurations should Validate first.
var ErrInvalidConfig = network.ErrInvalidConfig

// New assembles a simulation without running it. After Run only its
// KernelStats, Topology and Results stay valid. It panics on an invalid
// configuration; call cfg.Validate first to get the error instead.
func New(cfg Config) *Network { return network.New(cfg) }

// Run assembles and runs a simulation to completion. It is the
// zero-dependency wrapper around RunContext for callers that never
// cancel.
func Run(cfg Config) Results { return network.New(cfg).Run() }

// RunContext is Run with cooperative cancellation: the simulation polls
// ctx every network.AbortCheckInterval cycles and, once cancelled,
// returns the partial measurements with Results.Aborted set.
func RunContext(ctx context.Context, cfg Config) Results {
	return network.New(cfg).RunContext(ctx)
}

// ParseRouting parses a CLI routing name: xy/dt, adaptive/ad,
// west-first/westfirst, odd-even/oddeven (case-insensitive).
func ParseRouting(s string) (Routing, error) { return routing.Parse(s) }

// ParsePattern parses a CLI traffic-pattern name: NR, BC, TN, TP, SH, HS
// (case-insensitive).
func ParsePattern(s string) (Pattern, error) { return traffic.ParsePattern(s) }

// ParseProtection parses a CLI link-protection name: hbh, e2e, fec
// (case-insensitive).
func ParseProtection(s string) (Protection, error) { return link.ParseProtection(s) }

// ParseTopology parses a CLI topology name: mesh, torus
// (case-insensitive).
func ParseTopology(s string) (TopologyKind, error) { return topology.ParseKind(s) }

// ParseMortality parses a CLI hard-fault schedule: "none", or a
// comma-separated list of "link:NODEDIR@CYCLE" / "router:NODE@CYCLE" /
// "hazard:RATE@START-STOP" terms (e.g. "link:3E@1000,router:9@4000").
func ParseMortality(s string) (Mortality, error) { return fault.ParseMortality(s) }

// ConfigHash returns the configuration's canonical content hash: a hex
// SHA-256 over its canonical JSON form. Two configurations with the same
// hash produce byte-identical simulation results (runs are deterministic
// in the configuration, including the seed), which is what makes
// content-addressed result caching — nocd's /v1/campaigns cache — sound.
// Observability attachments (TraceSink, Metrics) do not affect results
// and are excluded from the hash.
func ConfigHash(cfg Config) (string, error) { return cfg.CanonicalHash() }

// EnergyPerMessageNJ converts a run's measured event counts into the
// paper's energy-per-message metric (nanojoules), using the 90 nm
// calibrated power model.
func EnergyPerMessageNJ(r Results) float64 {
	return power.EnergyPerMessage(r.Events, r.MeasuredMessages)
}

// TotalEnergyNJ returns the run's total measured dynamic energy in
// nanojoules.
func TotalEnergyNJ(r Results) float64 { return power.Energy(r.Events) }

// RouterPowerMW estimates a router configuration's power in milliwatts
// (90 nm, 1 V, 500 MHz), per the calibrated Table 1 model.
func RouterPowerMW(ports, vcs, bufDepth, retransDepth int, ac bool) float64 {
	return power.Power(power.RouterConfig{Ports: ports, VCs: vcs, BufDepth: bufDepth, RetransDepth: retransDepth, AC: ac})
}

// RouterAreaMM2 estimates a router configuration's area in mm².
func RouterAreaMM2(ports, vcs, bufDepth, retransDepth int, ac bool) float64 {
	return power.Area(power.RouterConfig{Ports: ports, VCs: vcs, BufDepth: bufDepth, RetransDepth: retransDepth, AC: ac})
}

// Eq1Satisfied evaluates the deadlock-recovery buffer lower bound of the
// paper's Equation (1) for n identical nodes with packet size m,
// transmission depth t and retransmission depth r.
func Eq1Satisfied(n, m, t, r int) bool { return deadlock.Eq1SatisfiedUniform(n, m, t, r) }

// MinTotalBuffer returns the smallest per-node total buffer size (T+R)
// that guarantees deadlock recovery per Equation (1).
func MinTotalBuffer(m, t int) int { return deadlock.MinTotalBuffer(m, t) }

// Eq1WorstCaseSatisfied evaluates the refined worst-case form of the
// buffer bound, which also counts the extra partial packet a wormhole
// buffer can hold when M divides T. See internal/deadlock for why the
// paper's own form understates that case.
func Eq1WorstCaseSatisfied(n, m, t, r int) bool {
	return deadlock.Eq1WorstCaseSatisfiedUniform(n, m, t, r)
}

// MinTotalBufferWorstCase returns the smallest per-node total buffer
// (T+R) that guarantees deadlock recovery under the refined worst case.
func MinTotalBufferWorstCase(m, t int) int { return deadlock.MinTotalBufferWorstCase(m, t) }
