// Package campaign is the declarative parallel experiment engine: it
// expands a parameter grid over network.Config into points, executes the
// points' replicates on a bounded worker pool, and aggregates replicated
// measurements into mean ± 95% CI estimates.
//
// Design constraints:
//
//   - Determinism. Every (point, replicate) derives its seed from the
//     base seed and its grid coordinates alone (RunConfigs' explicit
//     configs keep their own seeds), and results land in a
//     preallocated table indexed by those coordinates, so the output is
//     byte-identical whatever the worker count or scheduling order.
//   - Error isolation. An invalid or crashing point is captured in its
//     PointResult — the rest of the grid still runs to completion.
//   - Cancellable. The context is honoured both between points (no new
//     work is dispatched) and inside a running simulation (via
//     network.RunContext), so ^C returns promptly with the completed
//     prefix marked per point.
package campaign

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"ftnoc/internal/fault"
	"ftnoc/internal/invariant"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/power"
	"ftnoc/internal/routing"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
	"ftnoc/internal/topology"
	"ftnoc/internal/trace"
	"ftnoc/internal/traffic"
)

// Size is one topology-size axis value.
type Size struct{ Width, Height int }

func (s Size) String() string { return fmt.Sprintf("%dx%d", s.Width, s.Height) }

// Spec declares a campaign: a base configuration plus the axes to sweep.
// An empty axis means "keep the base value" (a single implicit value);
// the grid is the cartesian product of all axes, with Seeds replicates
// per point. The zero Workers runs on GOMAXPROCS workers.
type Spec struct {
	// Base supplies every parameter not swept by an axis. Base.Seed is
	// the root of the deterministic per-replicate seed derivation.
	Base network.Config

	// Axes, outermost to innermost in the point ordering.
	Sizes          []Size
	Topologies     []topology.Kind
	Routings       []routing.Algorithm
	Protections    []link.Protection
	Patterns       []traffic.Pattern
	LinkErrorRates []float64
	// MortalitySchedules sweeps hard-fault schedules (fault.Mortality;
	// the zero schedule means no deaths) — the degradation-curve axis.
	MortalitySchedules []fault.Mortality
	InjectionRates     []float64

	// Seeds is the number of replicates per point (default 1), each with
	// a distinct derived seed; replicated metrics aggregate to mean ± CI.
	Seeds int

	// Workers bounds the pool: positive is an explicit size, zero means
	// GOMAXPROCS, and negative is rejected by Run with an error wrapping
	// network.ErrInvalidConfig.
	Workers int

	// Invariants runs the runtime invariant checker inside every
	// replicate (a fresh checker per replicate — checkers are stateful).
	// A violation becomes the replicate's Err, so a structurally unsound
	// run is reported as a failure instead of contributing silently to
	// the aggregates. Checking does not perturb results, so it does not
	// contribute to CanonicalHash.
	Invariants bool

	// Progress, when non-nil, receives the span timeline
	// (CampaignBegin/End, CampaignPointBegin/End, CampaignRepBegin/End),
	// whose Cycle field carries wall-clock microseconds since Run
	// started. One RepBegin/RepEnd pair reports each replicate, the End
	// carrying its point, simulated cycles and status. Feed it a
	// trace.ChromeTrace and the whole schedule (worker lanes, idle gaps,
	// straggler points) renders in chrome://tracing. The engine
	// serialises emissions, so any Sink works unmodified; events arrive
	// in completion order, not point order.
	Progress trace.Sink

	// Logger, when non-nil, receives a structured record for every
	// failed replicate, attributed with the point's grid coordinates and
	// the replicate's derived seed — so a service running thousands of
	// points can tell exactly which configuration died. Like Progress it
	// does not perturb results and is excluded from CanonicalHash.
	Logger *slog.Logger
}

// Point is one fully resolved grid coordinate.
type Point struct {
	Index         int
	Size          Size
	Topology      topology.Kind
	Routing       routing.Algorithm
	Protection    link.Protection
	Pattern       traffic.Pattern
	LinkErrorRate float64
	Mortality     fault.Mortality
	InjectionRate float64

	// Config is the point's complete configuration, before per-replicate
	// seed assignment.
	Config network.Config
}

// RepResult is one replicate's outcome.
type RepResult struct {
	Seed    uint64
	Results network.Results
	// KernelTicked/KernelSkipped/KernelEvents/KernelSharded are the
	// replicate's scheduler-level counters: actor ticks executed, ticks
	// elided relative to ticking every actor every cycle, ticks dispatched
	// to actors that may sleep, and steps ticked as two shards. They live
	// here rather than in Results because they describe the simulator,
	// not the simulated network, and must not perturb result hashing or
	// serialisation.
	KernelTicked, KernelSkipped, KernelEvents, KernelSharded uint64
	// Err captures a crash inside this replicate's simulation; the
	// Results are zero when set.
	Err error
	// Ran marks a replicate run by a worker, not skipped by cancellation.
	Ran bool
}

// Aggregate summarises a point's completed replicates.
type Aggregate struct {
	// Completed counts replicates that ran to the end (Stalled is the
	// stalled subset); Aborted counts replicates cut short by
	// cancellation, which are excluded from the aggregates below.
	Completed, Stalled, Aborted int

	AvgLatency     stats.Estimate
	P95Latency     stats.Estimate
	Throughput     stats.Estimate // accepted flits/node/cycle
	EnergyPerMsgNJ stats.Estimate
	Delivered      stats.Estimate
	// Undeliverable and ReachableFrac summarise hard-fault degradation:
	// the per-replicate undeliverable-verdict count and the end-of-run
	// reachable-pair fraction. With no mortality schedule they aggregate
	// the constants 0 and 1.
	Undeliverable stats.Estimate
	ReachableFrac stats.Estimate
}

// PointResult is one point's outcome: its replicates plus the aggregate.
type PointResult struct {
	Point
	Reps []RepResult
	Agg  Aggregate
	// Err is the point's validation error (no replicate ran), or the
	// first replicate error when every replicate failed.
	Err error
}

// Failed reports whether the point produced no usable measurements.
func (p PointResult) Failed() bool { return p.Err != nil && p.Agg.Completed == 0 }

// Report is a completed campaign: every point in grid order.
type Report struct {
	Points  []PointResult
	Workers int
	Elapsed time.Duration
	// Aborted reports that the campaign's context was cancelled before
	// the grid completed; unstarted replicates have zero RepResults.
	Aborted bool
	// Rows, when non-nil, is the report's pre-flattened row form and
	// takes precedence over Points in every table export. A distributed
	// coordinator assembles its report from rows streamed back by
	// workers — the full PointResult (raw network.Results per replicate)
	// never crosses the wire, only the row form clients see — so a
	// row-level report renders byte-identically to the single-node
	// engine's without reconstructing simulator internals.
	Rows []PointRow
}

// KernelTotals sums the simulated cycles and scheduler counters (see
// RepResult) over every replicate that ran without error.
func (r *Report) KernelTotals() (cycles uint64, ks sim.Stats) {
	for i := range r.Points {
		for _, rr := range r.Points[i].Reps {
			if rr.Err != nil || !rr.Ran {
				continue
			}
			cycles += rr.Results.Cycles
			ks.Ticked += rr.KernelTicked
			ks.Skipped += rr.KernelSkipped
			ks.Events += rr.KernelEvents
			ks.Sharded += rr.KernelSharded
		}
	}
	return cycles, ks
}

// Points expands the spec's grid in deterministic order (axes nest
// outermost to innermost as declared on Spec, the injection rate
// innermost).
func (s Spec) Points() []Point {
	sizes := s.Sizes
	if len(sizes) == 0 {
		sizes = []Size{{s.Base.Width, s.Base.Height}}
	}
	topos := s.Topologies
	if len(topos) == 0 {
		topos = []topology.Kind{s.Base.TopologyKind}
	}
	routings := s.Routings
	if len(routings) == 0 {
		routings = []routing.Algorithm{s.Base.Routing}
	}
	prots := s.Protections
	if len(prots) == 0 {
		prots = []link.Protection{s.Base.Protection}
	}
	patterns := s.Patterns
	if len(patterns) == 0 {
		patterns = []traffic.Pattern{s.Base.Pattern}
	}
	linkErrs := s.LinkErrorRates
	if len(linkErrs) == 0 {
		linkErrs = []float64{s.Base.Faults.Link}
	}
	morts := s.MortalitySchedules
	if len(morts) == 0 {
		morts = []fault.Mortality{s.Base.Faults.Mortality}
	}
	injs := s.InjectionRates
	if len(injs) == 0 {
		injs = []float64{s.Base.InjectionRate}
	}

	points := make([]Point, 0, len(sizes)*len(topos)*len(routings)*len(prots)*len(patterns)*len(linkErrs)*len(morts)*len(injs))
	for _, sz := range sizes {
		for _, tk := range topos {
			for _, ro := range routings {
				for _, pr := range prots {
					for _, pa := range patterns {
						for _, le := range linkErrs {
							for _, mo := range morts {
								for _, inj := range injs {
									cfg := s.Base
									cfg.Width, cfg.Height = sz.Width, sz.Height
									cfg.TopologyKind = tk
									cfg.Routing = ro
									cfg.Protection = pr
									cfg.Pattern = pa
									cfg.Faults.Link = le
									cfg.Faults.Mortality = mo
									cfg.InjectionRate = inj
									points = append(points, Point{
										Index: len(points), Size: sz, Topology: tk,
										Routing: ro, Protection: pr, Pattern: pa,
										LinkErrorRate: le, Mortality: mo, InjectionRate: inj,
										Config: cfg,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return points
}

// DeriveSeed maps (base seed, point index, replicate index) to the
// replicate's simulation seed via a splitmix64-style finalizer: derived
// seeds are decorrelated, scheduling-independent and never zero.
func DeriveSeed(base uint64, point, rep int) uint64 {
	z := base ^ (uint64(point)+1)*0x9E3779B97F4A7C15 ^ (uint64(rep)+1)*0xD1B54A32D192ED03
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Run executes the spec's grid and returns the report. The only
// top-level error is an empty grid; per-point failures are captured in
// their PointResult. Cancelling ctx stops dispatch and aborts in-flight
// simulations; the report still contains everything that completed.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	points := spec.Points()
	if len(points) == 0 {
		return nil, fmt.Errorf("campaign: empty grid")
	}
	return run(ctx, spec, points, nil, derivedSeed)
}

// RunRange executes only the grid points with global index in [lo, hi) —
// the shard primitive of the distributed fabric. Every replicate derives
// its seed from the point's *global* grid index, so a range run produces
// exactly the rows the same points would produce inside a full Run, and
// re-running a range is idempotent. When emit is non-nil it receives each
// point's finished row as soon as its last replicate retires (completion
// order, serialised), which is what lets a worker stream partial results
// while the rest of the shard is still simulating. The returned report
// contains only the range's points, with their global indices preserved.
func RunRange(ctx context.Context, spec Spec, lo, hi int, emit func(PointRow)) (*Report, error) {
	points := spec.Points()
	if lo < 0 || hi > len(points) || lo >= hi {
		return nil, fmt.Errorf("campaign: %w: point range [%d,%d) outside grid of %d points",
			network.ErrInvalidConfig, lo, hi, len(points))
	}
	return run(ctx, spec, points[lo:hi], emit, derivedSeed)
}

// seedRule gives a (point, replicate) its simulation seed from the
// spec's base seed. The two rules are plain functions, not closures over
// the spec, so choosing one allocates nothing.
type seedRule func(base uint64, p Point, rep int) uint64

// derivedSeed is the rule of spec grids: the seed derives from the base
// seed and the point's global index.
func derivedSeed(base uint64, p Point, rep int) uint64 { return DeriveSeed(base, p.Index, rep) }

// ownSeed is RunConfigs' rule: each config keeps the seed it was given.
func ownSeed(_ uint64, p Point, _ int) uint64 { return p.Config.Seed }

// run is the one engine core behind Run (full grid, no streaming),
// RunRange (a shard with per-point row emission) and RunConfigs (an
// explicit config list). points carries global indices in Point.Index;
// report slots are local.
func run(ctx context.Context, spec Spec, points []Point, emit func(PointRow), seed seedRule) (*Report, error) {
	if spec.Workers < 0 {
		return nil, fmt.Errorf("campaign: %w: Workers must be >= 0 (0 means GOMAXPROCS), have %d",
			network.ErrInvalidConfig, spec.Workers)
	}
	reps := spec.Seeds
	if reps <= 0 {
		reps = 1
	}

	report := &Report{Points: make([]PointResult, len(points)), Workers: workers(spec.Workers)}
	start := time.Now()
	progress := newLockedSink(spec.Progress)

	// emitRow serialises streaming emissions: workers finish points
	// concurrently, but the consumer (typically an NDJSON writer on an
	// HTTP response) sees one row at a time.
	var emitMu sync.Mutex
	emitRow := func(local int) {
		if emit == nil {
			return
		}
		row := PointRowOf(&report.Points[local])
		emitMu.Lock()
		emit(row)
		emitMu.Unlock()
	}

	// Validation happens up front, once per point: an invalid point is
	// recorded, dispatches no replicates, and streams its (error) row
	// immediately.
	type job struct{ point, rep int }
	var jobs []job
	for i := range points {
		report.Points[i].Point = points[i]
		report.Points[i].Reps = make([]RepResult, reps)
		if err := points[i].Config.Validate(); err != nil {
			report.Points[i].Err = err
			emitRow(i)
			continue
		}
		for r := 0; r < reps; r++ {
			jobs = append(jobs, job{point: i, rep: r})
		}
	}

	spans := newSpanTracker(progress, start, points, reps)
	// A point's row is final the moment its last replicate retires: the
	// tracker's mutex hand-off ordered every replicate write before this
	// callback, so finalizing and streaming here races with nothing.
	spans.onPoint = func(local int) {
		finalizePoint(&report.Points[local])
		emitRow(local)
	}
	spans.campaignBegin(len(points), len(jobs))

	// The pool keeps its workers' cores busy: it claims them for its
	// lifetime, so a run inside it finds no spare core to shard onto.
	held := min(report.Workers, runtime.GOMAXPROCS(0))
	sim.HoldCores(held)
	defer sim.ReleaseCores(held)

	jobc := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < report.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range jobc {
				cfg := points[j.point].Config
				cfg.Seed = seed(spec.Base.Seed, points[j.point], j.rep)
				spans.repBegin(worker, j.point, j.rep, cfg.Seed)
				rr := runReplicate(ctx, cfg, spec.Invariants)
				report.Points[j.point].Reps[j.rep] = rr
				logRepFailure(spec.Logger, points[j.point], j.rep, rr)
				spans.repEnd(worker, j.point, j.rep, rr)
			}
		}(w)
	}
	dispatched := 0
dispatch:
	for _, j := range jobs {
		select {
		case jobc <- j:
			dispatched++
		case <-ctx.Done():
			report.Aborted = true
			break dispatch
		}
	}
	close(jobc)
	wg.Wait()
	spans.flush()

	for i := range report.Points {
		finalizePoint(&report.Points[i])
		if report.Points[i].Agg.Aborted > 0 {
			report.Aborted = true
		}
	}
	spans.campaignEnd(dispatched, report.Aborted)
	report.Elapsed = time.Since(start)
	return report, nil
}

// spanTracker turns the workers' replicate lifecycles into the
// hierarchical span timeline (campaign → point → replicate) published on
// the progress sink. Points open on their first replicate's dispatch
// and close on their last replicate's retirement; an aborted campaign
// closes its still-open points in flush so every Begin has a matching
// End.
type spanTracker struct {
	sink  *lockedSink
	start time.Time
	reps  int     // replicates per point
	grid  []Point // local slot → Point (Index carries the global id)

	// onPoint, when non-nil, fires once per point right after its last
	// replicate retires (outside the tracker lock, but ordered after
	// every replicate write by the lock hand-off) — the streaming-row
	// hook of RunRange.
	onPoint func(local int)

	mu     sync.Mutex
	points []pointSpan
}

type pointSpan struct {
	done, failed int
	begun, ended bool
}

func newSpanTracker(sink *lockedSink, start time.Time, grid []Point, reps int) *spanTracker {
	return &spanTracker{sink: sink, start: start, reps: reps, grid: grid, points: make([]pointSpan, len(grid))}
}

// global maps a local report slot to its global grid index.
func (t *spanTracker) global(local int) uint64 { return uint64(t.grid[local].Index) }

// wall is the event timestamp: microseconds of wall clock since Run
// started (the Chrome exporter's 1 tick = 1 µs).
func (t *spanTracker) wall() uint64 { return uint64(time.Since(t.start).Microseconds()) }

func (t *spanTracker) campaignBegin(points, jobs int) {
	t.sink.emit(trace.Event{
		Kind: trace.CampaignBegin, Cycle: t.wall(), Node: -1, Port: -1, VC: -1,
		Aux: uint64(points), Aux2: uint64(jobs),
	})
}

func (t *spanTracker) campaignEnd(ran int, aborted bool) {
	var ab uint64
	if aborted {
		ab = 1
	}
	t.sink.emit(trace.Event{
		Kind: trace.CampaignEnd, Cycle: t.wall(), Node: -1, Port: -1, VC: -1,
		Aux: uint64(ran), Aux2: ab,
	})
}

func (t *spanTracker) repBegin(worker, point, rep int, seed uint64) {
	now := t.wall()
	t.mu.Lock()
	ps := &t.points[point]
	if !ps.begun {
		ps.begun = true
		t.sink.emit(trace.Event{
			Kind: trace.CampaignPointBegin, Cycle: now, Node: -1, Port: -1, VC: -1,
			Aux: t.global(point),
		})
	}
	t.mu.Unlock()
	t.sink.emit(trace.Event{
		Kind: trace.CampaignRepBegin, Cycle: now, Node: int32(worker), Port: -1, VC: -1,
		Aux: t.global(point), PID: uint64(rep), Aux2: seed,
	})
}

func (t *spanTracker) repEnd(worker, point, rep int, rr RepResult) {
	now := t.wall()
	t.sink.emit(trace.Event{
		Kind: trace.CampaignRepEnd, Cycle: now, Node: int32(worker), Port: -1, VC: -1,
		Aux: t.global(point), PID: uint64(rep), Aux2: rr.Results.Cycles,
		Seq: trace.RepStatusOf(rr.Err != nil, rr.Results.Aborted),
	})
	t.mu.Lock()
	ps := &t.points[point]
	ps.done++
	if rr.Err != nil {
		ps.failed++
	}
	completed := ps.done == t.reps && !ps.ended
	if completed {
		ps.ended = true
		t.sink.emit(trace.Event{
			Kind: trace.CampaignPointEnd, Cycle: now, Node: -1, Port: -1, VC: -1,
			Aux: t.global(point), Aux2: uint64(ps.failed),
		})
	}
	t.mu.Unlock()
	if completed && t.onPoint != nil {
		t.onPoint(point)
	}
}

// flush closes the point spans an aborted dispatch left open.
func (t *spanTracker) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.points {
		ps := &t.points[i]
		if ps.begun && !ps.ended {
			ps.ended = true
			t.sink.emit(trace.Event{
				Kind: trace.CampaignPointEnd, Cycle: t.wall(), Node: -1, Port: -1, VC: -1,
				Aux: t.global(i), Aux2: uint64(ps.failed),
			})
		}
	}
}

// logRepFailure emits the structured record for a failed replicate:
// the full grid coordinates plus the derived seed, so the exact failing
// configuration can be re-run in isolation (nocsim with the same
// parameters and -seed). No-op for nil loggers and successful runs.
func logRepFailure(l *slog.Logger, p Point, rep int, rr RepResult) {
	if l == nil || rr.Err == nil {
		return
	}
	l.Error("replicate failed",
		"point", p.Index, "rep", rep, "seed", rr.Seed,
		"size", p.Size.String(), "topology", p.Topology.String(),
		"routing", p.Routing.String(), "protection", p.Protection.String(),
		"pattern", p.Pattern.String(),
		"link_error_rate", p.LinkErrorRate, "injection_rate", p.InjectionRate,
		"err", rr.Err)
}

// runReplicate builds one simulation and runs it, converting any panic
// into the replicate's error so a crashing point cannot take down the
// grid. Its result copies out of the slabs the next build reuses. With
// check set it attaches a fresh invariant checker (replacing any
// caller-supplied one — checkers are single-run state and must never be
// shared across concurrent replicates); either way, a checker present on
// the config turns violations into the replicate's error.
func runReplicate(ctx context.Context, cfg network.Config, check bool) (rr RepResult) {
	rr.Seed, rr.Ran = cfg.Seed, true
	defer func() {
		if r := recover(); r != nil {
			rr.Err = fmt.Errorf("campaign: replicate seed %d panicked: %v", rr.Seed, r)
		}
	}()
	if check {
		cfg.Invariants = invariant.New(invariant.Config{})
	}
	net := network.New(cfg)
	rr.Results = net.RunContext(ctx)
	ks := net.KernelStats()
	rr.KernelTicked, rr.KernelSkipped, rr.KernelEvents, rr.KernelSharded = ks.Ticked, ks.Skipped, ks.Events, ks.Sharded
	if cfg.Invariants != nil && !rr.Results.Aborted {
		if err := cfg.Invariants.Err(); err != nil {
			rr.Err = fmt.Errorf("campaign: replicate seed %d: %w", rr.Seed, err)
		}
	}
	return rr
}

// finalizePoint computes the aggregate and promotes an all-replicates
// failure to the point error. Idempotent: the streaming path finalizes a
// point the moment its last replicate retires, and the end-of-run sweep
// finalizes every point again — the recomputation starts from a zero
// aggregate and identical replicates, so both calls agree.
func finalizePoint(p *PointResult) {
	if p.Err != nil {
		return // invalid config: no replicates ran
	}
	p.Agg = Aggregate{}
	var lat, p95, thr, energy, delivered, undeliv, reach []float64
	var firstErr error
	for _, rr := range p.Reps {
		if rr.Err != nil {
			if firstErr == nil {
				firstErr = rr.Err
			}
			continue
		}
		if !rr.Ran {
			continue
		}
		if rr.Results.Aborted {
			// A cancelled replicate is a partial measurement: counted,
			// but kept out of the aggregates.
			p.Agg.Aborted++
			continue
		}
		p.Agg.Completed++
		if rr.Results.Stalled {
			p.Agg.Stalled++
		}
		lat = append(lat, rr.Results.AvgLatency)
		p95 = append(p95, rr.Results.P95Latency)
		thr = append(thr, rr.Results.Throughput.FlitsPerNodePerCycle())
		energy = append(energy, power.EnergyPerMessage(rr.Results.Events, rr.Results.MeasuredMessages))
		delivered = append(delivered, float64(rr.Results.Delivered))
		undeliv = append(undeliv, float64(rr.Results.Undeliverable))
		reach = append(reach, rr.Results.ReachablePairFraction)
	}
	p.Agg.AvgLatency = stats.MeanCI95(lat)
	p.Agg.P95Latency = stats.MeanCI95(p95)
	p.Agg.Throughput = stats.MeanCI95(thr)
	p.Agg.EnergyPerMsgNJ = stats.MeanCI95(energy)
	p.Agg.Delivered = stats.MeanCI95(delivered)
	p.Agg.Undeliverable = stats.MeanCI95(undeliv)
	p.Agg.ReachableFrac = stats.MeanCI95(reach)
	if p.Agg.Completed == 0 {
		p.Err = firstErr
	}
}

// RunConfigs executes an explicit configuration list on the engine's
// pool and returns one single-replicate point per config, in input order
// — the entry point for harnesses (package experiments) whose grids don't
// fit Spec's axes. Unlike Run, each config keeps its own seed. Invalid or
// crashing configs are captured per point; a cancelled ctx aborts
// in-flight runs. A non-positive poolSize means GOMAXPROCS.
func RunConfigs(ctx context.Context, poolSize int, cfgs []network.Config) *Report {
	points := make([]Point, len(cfgs))
	for i, cfg := range cfgs {
		points[i] = Point{Index: i, Config: cfg}
	}
	// run's only error is a negative Workers, which max rules out.
	report, _ := run(ctx, Spec{Workers: max(poolSize, 0)}, points, nil, ownSeed)
	return report
}

// workers resolves a pool-size request to a positive worker count.
func workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// lockedSink serialises concurrent workers' progress emissions onto one
// Sink, so ordinary single-goroutine sinks (NDJSON writers, counters)
// work unchanged.
type lockedSink struct {
	mu   sync.Mutex
	next trace.Sink
}

func newLockedSink(next trace.Sink) *lockedSink { return &lockedSink{next: next} }

func (l *lockedSink) emit(e trace.Event) {
	if l.next == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next.Emit(e)
}
