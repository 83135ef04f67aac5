package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"ftnoc/internal/campaign"
	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/power"
	"ftnoc/internal/stats"
	"ftnoc/internal/trace"
)

// workload is one named set of generated inputs. The names are fixed:
// later issues cite them.
type workload struct {
	Name string
	Why  string
	// Variants is how many distinct inputs the seed expands to; op i runs
	// variant i mod Variants. The single-run workloads repeat four seeds
	// so every round re-checks determinism; the grid workloads need a
	// fresh spec per op, or the service would answer from its cache.
	Variants int
	// Fresh marks a workload whose every op in a process needs an input
	// that process has not seen.
	Fresh bool
	// Points is the number of grid points one op completes; points_per_s
	// is reported where it is more than one.
	Points int
	// Pooled marks an op that spreads its work over both cores, so the
	// host reading around it is taken the same way (hostProbe.read).
	Pooled bool
	op     func(r *round, variant int) opResult
}

var workloads = []*workload{
	{
		Name:     "hbh_clean",
		Why:      "Fig 5/6 low-error point: per-flit router/link/ECC work dominates, error machinery idle; a clean-flit fast path must show here",
		Variants: 4, Points: 1, op: simOp,
	},
	{
		Name:     "faults_heavy",
		Why:      "same datapath with ~10% of traversals NACKed and replayed plus logic upsets; a fast path that taxes the error path shows here",
		Variants: 4, Points: 1, op: simOp,
	},
	{
		Name:     "sparse_16x16",
		Why:      "16x16 at 0.02 load skips ~77% of ticks: scheduler bookkeeping and construction dominate, datapath changes should read flat",
		Variants: 4, Points: 1, op: simOp,
	},
	{
		Name:     "campaign_grid",
		Why:      "8-point grid of short runs through ParseSpec/Run/WriteNDJSON: per-point set-up, pool and encoding dominate; half the points die mid-run",
		Variants: gridVariants, Fresh: true, Points: gridPoints, Pooled: true, op: gridOp,
	},
	{
		Name:     "service_fabric",
		Why:      "the campaign_grid specs over loopback HTTP through serve and a two-worker fabric; the difference from campaign_grid is service overhead",
		Variants: gridVariants, Fresh: true, Points: gridPoints, Pooled: true, op: serviceOp,
	},
}

const (
	gridVariants = 100
	gridPoints   = 8
	gridMessages = 1500
	gridWarmup   = 300
)

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// simConfig generates a single-run workload's configuration. shrink
// divides the message counts (1 outside the smoke test).
func simConfig(name string, seed uint64, variant int, shrink uint64) network.Config {
	cfg := network.NewConfig()
	cfg.WarmupMessages, cfg.TotalMessages = 1000, 7000
	cfg.Faults.Link = 1e-5
	cfg.Seed = seed*1000 + uint64(variant)
	switch name {
	case "faults_heavy":
		cfg.Faults = fault.Rates{Link: 1e-1, LinkDouble: 0.5, RT: 1e-2, VA: 1e-2, SA: 1e-2}
	case "sparse_16x16":
		cfg.Width, cfg.Height = 16, 16
		cfg.InjectionRate = 0.02
		cfg.WarmupMessages, cfg.TotalMessages = 500, 2500
	}
	cfg.WarmupMessages /= shrink
	cfg.TotalMessages /= shrink
	return cfg
}

// gridSpec generates the campaign spec document both grid workloads
// submit: 2 protections x 2 link error rates x 2 mortality schedules on
// a 6x6 mesh under fault-adaptive routing.
func gridSpec(seed uint64, variant int, shrink uint64) []byte {
	return fmt.Appendf(nil, `{"base":{"Width":6,"Height":6,"InjectionRate":0.15,"WarmupMessages":%d,"TotalMessages":%d,"Seed":%d},`+
		`"routings":["fault-adaptive"],"protections":["hbh","fec"],"link_error_rates":[1e-5,1e-2],`+
		`"mortality_schedules":["none","link:8E@300,router:21@700"],"seeds":1,"workers":2}`,
		gridWarmup/shrink, gridMessages/shrink, seed*1000+uint64(variant))
}

// opResult is what one op reports back to the round loop.
type opResult struct {
	WallMs     float64
	Mallocs    uint64
	AllocBytes uint64
	Cycles     uint64
	// FirstPointMs and CachedMs are set by the service workload only.
	FirstPointMs float64
	CachedMs     float64
	// Result is the op's simulated output, the bytes the digests cover.
	Result []byte
	// Err marks the op failed; see checkResults and checkRows for what
	// counts.
	Err error
}

// timed runs fn and returns its wall time and the process's allocation
// deltas across it. The two ReadMemStats calls sit outside the clock.
func timed(fn func()) (wallMs float64, mallocs, bytes uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	wallMs = sinceMs(t0)
	runtime.ReadMemStats(&m1)
	return wallMs, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// sinceMs is the wall time since t0 in milliseconds.
func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// simOp is network.New + Network.Run on the workload's generated config.
func simOp(r *round, variant int) (out opResult) {
	cfg := simConfig(r.w.Name, r.seed, variant, r.shrink)
	var res network.Results
	var ticked, skipped, events uint64
	var newMs float64
	op := r.rec.begin("op", "")
	out.WallMs, out.Mallocs, out.AllocBytes = timed(func() {
		defer recoverInto(&out.Err)
		s := r.rec.begin("network.New", "op")
		net := network.New(cfg)
		newMs = s.end()
		s = r.rec.begin("Network.Run", "op")
		res = net.Run()
		s.end()
		ks := net.KernelStats()
		ticked, skipped, events = ks.Ticked, ks.Skipped, ks.Events
	})
	op.end()
	if out.Err != nil {
		return out
	}
	out.Cycles = res.Cycles
	out.Err = checkResults(res, cfg.TotalMessages, cfg.Protection)
	var err error
	if out.Result, err = json.Marshal(res); err != nil && out.Err == nil {
		out.Err = err
	}
	if r.rec != nil {
		r.rec.add("network.new_ms", newMs)
		r.rec.add("network.run_ms", out.WallMs-newMs)
		r.rec.addResults(res)
		r.rec.addKernel(ticked, skipped, events)
	}
	return out
}

// recoverInto turns a panic inside an op into that op's failure.
func recoverInto(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

// checkResults applies the delivery guarantees to one run: it ended on
// its own and every message got a verdict; under HBH, the scheme the
// paper guarantees intact delivery for, nothing arrived corrupt or was
// lost. Under FEC a corrupt arrival or an evicted retention copy is the
// baseline scheme behaving as modelled, not a failed op.
func checkResults(res network.Results, total uint64, prot link.Protection) error {
	switch {
	case res.Stalled:
		return errors.New("run stalled")
	case res.Aborted:
		return errors.New("run aborted")
	case res.Delivered+res.Undeliverable < total:
		return fmt.Errorf("delivered %d + undeliverable %d < %d messages", res.Delivered, res.Undeliverable, total)
	case prot == link.HBH && res.CorruptedPackets+res.LostPackets > 0:
		return fmt.Errorf("%d corrupted and %d lost packets under HBH", res.CorruptedPackets, res.LostPackets)
	}
	return nil
}

// repSink collects the campaign engine's replicate span timeline
// (Spec.Progress) during traced ops. Event cycles are wall-clock
// microseconds since campaign.Run started; a worker lane has at most one
// replicate open.
type repSink struct {
	open map[int32]uint64 // worker lane -> begin µs
	reps []repSpan
}

type repSpan struct {
	worker         int32
	beginUs, endUs uint64
}

func (s *repSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.CampaignRepBegin:
		s.open[e.Node] = e.Cycle
	case trace.CampaignRepEnd:
		if b, ok := s.open[e.Node]; ok {
			s.reps = append(s.reps, repSpan{worker: e.Node, beginUs: b, endUs: e.Cycle})
			delete(s.open, e.Node)
		}
	}
}

// gridOp is campaign.ParseSpec -> campaign.Run -> Report.WriteNDJSON.
func gridOp(r *round, variant int) (out opResult) {
	doc := gridSpec(r.seed, variant, r.shrink)
	var report *campaign.Report
	var buf bytes.Buffer
	var sink *repSink
	if r.rec != nil {
		sink = &repSink{open: make(map[int32]uint64)}
	}
	var parseMs, runMs, writeMs float64
	var runStart time.Time
	op := r.rec.begin("op", "")
	out.WallMs, out.Mallocs, out.AllocBytes = timed(func() {
		defer recoverInto(&out.Err)
		s := r.rec.begin("campaign.ParseSpec", "op")
		spec, err := campaign.ParseSpec(doc)
		parseMs = s.end()
		if err != nil {
			out.Err = err
			return
		}
		if sink != nil {
			spec.Progress = sink
		}
		s = r.rec.begin("campaign.Run", "op")
		runStart = s.start
		report, err = campaign.Run(context.Background(), spec)
		runMs = s.end()
		if err != nil {
			out.Err = err
			return
		}
		s = r.rec.begin("Report.WriteNDJSON", "op")
		out.Err = report.WriteNDJSON(&buf)
		writeMs = s.end()
	})
	op.end()
	if out.Err != nil {
		return out
	}
	out.Result = buf.Bytes()
	out.Cycles, out.Err = checkRows(out.Result, gridMessages/r.shrink, r.rec)
	var ticked, skipped, events uint64
	for i := range report.Points {
		p := &report.Points[i]
		for _, rr := range p.Reps {
			if err := checkResults(rr.Results, gridMessages/r.shrink, p.Protection); err != nil && out.Err == nil {
				out.Err = fmt.Errorf("point %d: %w", p.Index, err)
			}
			ticked, skipped, events = ticked+rr.KernelTicked, skipped+rr.KernelSkipped, events+rr.KernelEvents
			if r.rec != nil {
				r.rec.addEvents(rr.Results.TotalEvents, rr.Results.Counters)
			}
		}
	}
	if r.rec != nil {
		r.rec.add("campaign.parse_spec_us", parseMs*1e3)
		r.rec.add("campaign.run_ms", runMs)
		r.rec.add("campaign.write_ndjson_us", writeMs*1e3)
		r.rec.add("campaign.points_per_s", gridPoints/(out.WallMs/1e3))
		r.rec.addKernel(ticked, skipped, events)
		var busyUs float64
		for _, rep := range sink.reps {
			us := float64(rep.endUs - rep.beginUs)
			busyUs += us
			r.rec.repsMs = append(r.rec.repsMs, us/1e3)
			r.rec.spanAt(fmt.Sprintf("replicate@worker%d", rep.worker), "campaign.Run",
				runStart.Add(time.Duration(rep.beginUs)*time.Microsecond), us/1e3)
		}
		r.rec.add("campaign.pool_busy_share", busyUs/1e3/(runMs*float64(report.Workers)))
	}
	return out
}

// checkRows validates a rendered NDJSON table from either grid workload
// (every point ran to the end and gave each of its total messages a
// verdict) and returns the simulated cycles it covers. With a recorder
// it also folds the rows' simulated statistics into the network.* layer
// counts.
func checkRows(table []byte, total uint64, rec *recorder) (cycles uint64, err error) {
	rows, err := campaign.ReadNDJSON(bytes.NewReader(table))
	if err != nil {
		return 0, err
	}
	if len(rows) != gridPoints {
		return 0, fmt.Errorf("%d rows, want %d", len(rows), gridPoints)
	}
	var lat, thr, energy, undeliv, reach float64
	for _, row := range rows {
		if row.Error != "" || row.Completed != row.Reps || row.Stalled != 0 || row.Aborted != 0 {
			return 0, fmt.Errorf("point %d: error %q, %d/%d completed, %d stalled, %d aborted",
				row.Point, row.Error, row.Completed, row.Reps, row.Stalled, row.Aborted)
		}
		for _, rep := range row.Replicates {
			if rep.Error != "" || rep.Delivered+rep.Undeliverable < total {
				return 0, fmt.Errorf("point %d: replicate error %q, delivered %d + undeliverable %d < %d",
					row.Point, rep.Error, rep.Delivered, rep.Undeliverable, total)
			}
			cycles += rep.Cycles
		}
		lat += row.AvgLatency.Mean
		thr += row.Throughput.Mean
		energy += row.EnergyPerMsgNJ.Mean
		undeliv += row.Undeliverable.Mean
		reach += row.ReachableFrac.Mean
	}
	if rec != nil {
		n := float64(len(rows))
		rec.add("network.cycles", float64(cycles))
		rec.add("network.avg_latency_cycles", lat/n)
		rec.add("network.throughput_fnc", thr/n)
		rec.add("network.energy_nj_per_msg", energy/n)
		rec.add("network.undeliverable", undeliv)
		rec.add("network.reachable_frac", reach/n)
	}
	return cycles, nil
}

// addResults folds one run's simulated statistics into the layer counts.
func (rec *recorder) addResults(res network.Results) {
	rec.add("network.cycles", float64(res.Cycles))
	rec.add("network.avg_latency_cycles", res.AvgLatency)
	rec.add("network.throughput_fnc", res.Throughput.FlitsPerNodePerCycle())
	rec.add("network.energy_nj_per_msg", power.EnergyPerMessage(res.Events, res.MeasuredMessages))
	rec.add("network.undeliverable", float64(res.Undeliverable))
	rec.add("network.reachable_frac", res.ReachablePairFraction)
	rec.addEvents(res.TotalEvents, res.Counters)
}

// addEvents charges a run's event counts to the layers that did the work.
func (rec *recorder) addEvents(ev stats.Events, ctr *fault.Counters) {
	rec.add("router.va_allocs", float64(ev.VAAllocs))
	rec.add("router.sa_allocs", float64(ev.SAAllocs))
	rec.add("router.rt_computes", float64(ev.RTComputes))
	rec.add("router.buf_writes", float64(ev.BufWrites))
	rec.add("link.traversals", float64(ev.LinkTraversals))
	rec.add("link.retrans_writes", float64(ev.RetransWrites))
	rec.add("link.retransmitted", float64(ev.Retransmitted))
	rec.add("link.nacks", float64(ev.NACKs))
	rec.add("link.credits", float64(ev.Credits))
	rec.add("ecc.decodes", float64(ev.ECCDecodes))
	rec.add("ecc.corrections", float64(ev.ECCCorrections))
	rec.add("ac.checks", float64(ev.ACChecks))
	if ctr != nil {
		rec.add("fault.link_injected", float64(ctr.Injected[fault.LinkError]))
	}
}

func (rec *recorder) addKernel(ticked, skipped, events uint64) {
	rec.add("sim.actor_ticks", float64(ticked))
	rec.add("sim.skipped", float64(skipped))
	rec.add("sim.events_dispatched", float64(events))
}
