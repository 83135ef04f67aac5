package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// plan is one benchmark run: which workloads, how many rounds, and what
// ends a round. Rounds are visited round-robin over the workloads, each
// in a fresh child process, so every workload's samples span the whole
// run instead of one window of it.
type plan struct {
	Workloads []*workload
	Seed      uint64
	Rounds    int
	Ops       int     // timed ops per round; 0 = no count limit
	Seconds   float64 // seconds of timed ops per round; 0 = no time limit
	Trace     bool
	OutDir    string
	// Smoke is the tier-1 test's mode: rounds shrink (see
	// roundConfig.Smoke) and run by function call instead of re-executing
	// the binary.
	Smoke bool
}

func (p plan) limit() string {
	if p.Ops > 0 {
		return fmt.Sprintf("%d ops", p.Ops)
	}
	return fmt.Sprintf("%gs", p.Seconds)
}

// estimatorName describes the one estimator behind every timing: each
// op sample is first scaled to the reference host speed by the probe
// readings around it (hostProbe), which takes out the host's slow swings
// (they move even a run's fastest op by 10-20%); what is left is
// two-sided, so the median of the scaled samples is reported. README.md,
// "Measured noise", has the numbers behind the choice. The issue's own
// estimator over raw walls is printed beside it as bench.op_ms_quiet.
const estimatorName = "median of host-normalised op samples"

// percentile is the nearest-rank p-th percentile of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// quietMean is the issue's quiet-host estimate: the mean of the fastest
// quartile of samples.
func quietMean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	s = s[:max(1, len(s)/4)]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// spread is the distance between the first and third quartile of a
// metric's per-round values as a share of their median, the quartiles
// placed as Python's statistics.quantiles(n=4) places them: the measure
// the benchmark driver applies to runs, applied here to rounds.
func spread(perRound []float64) float64 {
	n := len(perRound)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), perRound...)
	sort.Float64s(s)
	quartile := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // 0-based, may fall outside [0, n-1]
		i := min(max(int(math.Floor(pos)), 0), n-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	med := (s[(n-1)/2] + s[n/2]) / 2
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// workloadResult is one workload's report.
type workloadResult struct {
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	FailedShare float64          `json:"failed_share"`
	// Digest covers every op's result bytes, in variant order.
	Digest   string   `json:"digest"`
	Failures []string `json:"failures,omitempty"`
	// SamplesMs (raw op walls, one list per round), HostMs (the probe
	// reading around each) and SetupsS (host-normalised) are the
	// observations, kept so a reader can try another estimator without
	// rerunning.
	SamplesMs [][]float64 `json:"samples_ms"`
	HostMs    [][]float64 `json:"host_ms"`
	SetupsS   []float64   `json:"setups_s"`

	digests map[int]string // variant -> digest of its result bytes
}

// suiteResult is the -out document: what -compare reads.
type suiteResult struct {
	Stamp     stamp                      `json:"stamp"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (s *suiteResult) failed() int {
	n := 0
	for _, w := range s.Workloads {
		n += w.Failed
	}
	return n
}

// run executes the plan and aggregates each workload's rounds.
func run(p plan, expected expectations) (*suiteResult, error) {
	if p.Trace {
		if err := os.MkdirAll(p.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	probe := newHostProbe()
	rounds := make(map[string][]roundResult)
	for r := 0; r < p.Rounds; r++ {
		for _, w := range p.Workloads {
			cfg := roundConfig{
				Workload: w.Name, Seed: p.Seed, Round: r,
				Start: r * max(p.Ops, suiteOps), Ops: p.Ops, Seconds: p.Seconds, Trace: p.Trace, Smoke: p.Smoke,
			}
			if p.Trace {
				cfg.ProfilePath = filepath.Join(p.OutDir, fmt.Sprintf("profile-%s-round%d.pb.gz", w.Name, r))
			}
			var res roundResult
			var err error
			if p.Smoke {
				res, err = runRound(cfg, func(pooled bool) (float64, error) { return probe.read(pooled), nil })
			} else {
				res, err = spawnRound(cfg, probe)
			}
			if err != nil {
				return nil, err
			}
			rounds[w.Name] = append(rounds[w.Name], res)
		}
	}
	out := &suiteResult{Stamp: newStamp(p), Workloads: make(map[string]*workloadResult)}
	for _, w := range p.Workloads {
		wr := aggregate(w, rounds[w.Name], p.Trace)
		if p.Seed == expected.Seed && !p.Smoke {
			wr.checkPinned(w, expected.Workloads[w.Name])
		}
		out.Workloads[w.Name] = wr
		if p.Trace {
			if err := writeTraceFile(p.OutDir, traceFileOf(out.Stamp, w, wr, rounds[w.Name])); err != nil {
				return nil, err
			}
		}
	}
	if grid, svc := out.Workloads["campaign_grid"], out.Workloads["service_fabric"]; grid != nil && svc != nil {
		svc.checkBytesAgainstEngine(grid)
		// The smoke test's two shrunk ops in one round have no noise
		// floor to hold a timing against.
		if !p.Smoke {
			svc.checkCostAgainstEngine(grid)
		}
	}
	for _, wr := range out.Workloads {
		wr.FailedShare = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	}
	return out, nil
}

func (wr *workloadResult) fail(msg string) {
	wr.Failed++
	if len(wr.Failures) < maxFailures {
		wr.Failures = append(wr.Failures, msg)
	}
}

// checkBytesAgainstEngine holds service_fabric's result bytes against
// those of campaign_grid: the same specs through the engine and through
// serve->fabric must render the same NDJSON.
func (svc *workloadResult) checkBytesAgainstEngine(grid *workloadResult) {
	for v, d := range svc.digests {
		if g, ok := grid.digests[v]; ok && g != d {
			svc.fail(fmt.Sprintf("service_fabric variant %d: digest %s differs from campaign_grid's %s", v, d, g))
		}
	}
}

// checkCostAgainstEngine holds service_fabric's op_ms against
// campaign_grid's. The service does everything the engine does and more,
// so its op cannot be the cheaper one: if it reads cheaper by more than
// the run's own noise floor, the timings are biased, not the code fast.
func (svc *workloadResult) checkCostAgainstEngine(grid *workloadResult) {
	s, g := svc.EndToEnd["op_ms"], grid.EndToEnd["op_ms"]
	if floor := max(s.Spread, g.Spread); s.Value > 0 && s.Value < g.Value*(1-floor) {
		svc.fail(fmt.Sprintf("service_fabric op_ms %.1f reads below campaign_grid's %.1f by more than the round spread %.1f%%: the service path cannot cost less than the engine it wraps",
			s.Value, g.Value, 100*floor))
	}
}

// checkPinned holds every variant's digest against expected.json.
func (wr *workloadResult) checkPinned(w *workload, pinned []string) {
	for v, d := range wr.digests {
		if v >= len(pinned) {
			wr.fail(fmt.Sprintf("%s variant %d: no pinned digest; run -update-expected", w.Name, v))
		} else if pinned[v] != d {
			wr.fail(fmt.Sprintf("%s variant %d: digest %s, pinned %s", w.Name, v, d, pinned[v]))
		}
	}
}

// aggregate turns a workload's rounds into its reported metrics.
func aggregate(w *workload, rounds []roundResult, traced bool) *workloadResult {
	wr := &workloadResult{PerLayer: make(map[string]value), digests: make(map[int]string)}
	units := make(map[string]string)
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}

	// series holds one metric's per-op samples, all rounds and per round.
	type series struct {
		all      []float64
		perRound [][]float64
	}
	wall, rate, points, first, cached := &series{}, &series{}, &series{}, &series{}, &series{}
	var rawMs, hostMs, refMs, setups, allocs, allocKB, rss []float64
	var ops int
	seen := func(s opSample) {
		if s.Digest == "" {
			return
		}
		if prev, ok := wr.digests[s.Variant]; ok && prev != s.Digest {
			wr.fail(fmt.Sprintf("%s variant %d: same seed produced digests %s and %s", w.Name, s.Variant, prev, s.Digest))
		}
		wr.digests[s.Variant] = s.Digest
	}
	for _, r := range rounds {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, f := range r.Failures {
			if len(wr.Failures) < maxFailures {
				wr.Failures = append(wr.Failures, f)
			}
		}
		seen(r.Warm)
		for _, s := range []*series{wall, rate, points, first, cached} {
			s.perRound = append(s.perRound, nil)
		}
		push := func(s *series, v float64) {
			s.all = append(s.all, v)
			s.perRound[len(s.perRound)-1] = append(s.perRound[len(s.perRound)-1], v)
		}
		var roundMs, roundHost []float64
		for _, s := range r.Ops {
			seen(s)
			if s.WallMs <= 0 || s.HostMs <= 0 {
				continue // a failed op has no timing
			}
			roundMs, roundHost = append(roundMs, s.WallMs), append(roundHost, s.HostMs)
			ms := s.WallMs / s.HostMs
			push(wall, ms)
			push(rate, float64(s.Cycles)/(ms/1e3))
			if w.Points > 1 {
				push(points, float64(w.Points)/(ms/1e3))
			}
			if s.FirstPointMs > 0 {
				push(first, s.FirstPointMs/s.HostMs)
			}
			if s.CachedMs > 0 {
				push(cached, s.CachedMs/s.HostMs)
			}
		}
		ops += len(r.Ops)
		rawMs, hostMs = append(rawMs, roundMs...), append(hostMs, roundHost...)
		refMs = append(refMs, r.RefMs...)
		if r.SetupHostMs > 0 {
			setups = append(setups, r.SetupS/r.SetupHostMs)
		}
		wr.SamplesMs, wr.HostMs = append(wr.SamplesMs, roundMs), append(wr.HostMs, roundHost)
		if n := float64(len(r.Ops)); n > 0 {
			allocs = append(allocs, float64(r.Mallocs)/n)
			allocKB = append(allocKB, float64(r.AllocBytes)/1024/n)
		}
		if r.PeakRSSKB > 0 {
			rss = append(rss, float64(r.PeakRSSKB)/1024)
		}
	}
	wr.SetupsS = setups
	wr.Digest = combinedDigest(wr.digests)

	estimate := func(s *series) (v float64, perRound []float64) {
		for _, r := range s.perRound {
			if len(r) > 0 {
				perRound = append(perRound, percentile(r, 50))
			}
		}
		return percentile(s.all, 50), perRound
	}
	set := func(dst map[string]value, name string, v float64, perRound []float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return // never measured on this workload: omitted, not zero
		}
		dst[name] = value{Value: v, Unit: units[name], Spread: spread(perRound)}
	}
	mean := func(vs []float64) float64 {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		return sum / float64(len(vs))
	}

	opMs, opMsRounds := estimate(wall)
	if !traced {
		wr.EndToEnd = make(map[string]value)
		set(wr.EndToEnd, "setup_s", percentile(setups, 50), setups)
		v, pr := estimate(rate)
		set(wr.EndToEnd, "sim_cycles_per_s", v, pr)
		set(wr.EndToEnd, "op_ms", opMs, opMsRounds)
		v, pr = estimate(points)
		set(wr.EndToEnd, "points_per_s", v, pr)
		v, pr = estimate(first)
		set(wr.EndToEnd, "first_point_ms", v, pr)
		v, pr = estimate(cached)
		set(wr.EndToEnd, "cached_ms", v, pr)
		if len(allocs) > 0 {
			set(wr.EndToEnd, "allocs_per_op", mean(allocs), allocs)
			set(wr.EndToEnd, "alloc_kb_per_op", mean(allocKB), allocKB)
		}
		if len(rss) > 0 {
			set(wr.EndToEnd, "peak_rss_mb", percentile(rss, 50), rss)
		}
	}
	set(wr.PerLayer, "bench.op_ms_p50", percentile(rawMs, 50), nil)
	set(wr.PerLayer, "bench.op_ms_p90", percentile(rawMs, 90), nil)
	set(wr.PerLayer, "bench.op_ms_quiet", quietMean(rawMs), nil)
	set(wr.PerLayer, "bench.host_probe_ms", percentile(hostMs, 50), nil)
	set(wr.PerLayer, "bench.samples", float64(len(wall.all)), nil)
	set(wr.PerLayer, "bench.round_spread", spread(opMsRounds), nil)
	if !traced || ops == 0 {
		return wr
	}

	// Layer counts: sums over the traced ops, reported per op.
	counts := make(map[string]float64)
	unitCost := make(map[string]float64)
	prof := profileBuckets{ByLayer: make(map[string]float64)}
	var repsMs []float64
	var gcCycles float64
	for _, r := range rounds {
		for name, v := range r.Counts {
			counts[name] += v
		}
		for name, v := range r.Units {
			if cur, ok := unitCost[name]; !ok || v < cur {
				unitCost[name] = v
			}
		}
		if r.Profile != nil {
			prof.TotalNs += r.Profile.TotalNs
			for layer, ns := range r.Profile.ByLayer {
				prof.ByLayer[layer] += ns
			}
		}
		repsMs = append(repsMs, r.RepsMs...)
		gcCycles += float64(r.GCCycles)
	}
	n := float64(ops)
	if ticks := counts["sim.actor_ticks"] + counts["sim.skipped"]; ticks > 0 {
		set(wr.PerLayer, "sim.skipped_ratio", counts["sim.skipped"]/ticks, nil)
	}
	for name, v := range counts {
		if _, known := units[name]; known {
			set(wr.PerLayer, name, v/n, nil)
		}
	}
	for name, v := range unitCost {
		if _, known := units[name]; known {
			set(wr.PerLayer, name, v, nil)
		}
	}
	set(wr.PerLayer, "campaign.rep_ms_p50", percentile(repsMs, 50), nil)
	set(wr.PerLayer, "campaign.rep_ms_p90", percentile(repsMs, 90), nil)
	set(wr.PerLayer, "runtime.gc_cycles", gcCycles/n, nil)
	set(wr.PerLayer, "bench.trace_overhead_ratio", opMs/percentile(refMs, 50), nil)

	if prof.TotalNs > 0 {
		var attributed float64
		for _, m := range perLayer {
			layer, ok := strings.CutSuffix(m.Name, "_cpu_share")
			if !ok {
				if layer, ok = strings.CutSuffix(m.Name, ".cpu_share"); !ok {
					continue
				}
			}
			attributed += prof.ByLayer[layer]
			set(wr.PerLayer, m.Name, prof.ByLayer[layer]/prof.TotalNs, nil)
		}
		set(wr.PerLayer, "bench.profile_attributed_share", attributed/prof.TotalNs, nil)

		// Parts against the whole: what the link unit costs predict for
		// the op's counted hops and NACKs (a hop includes its ECC and
		// fault draw), over the CPU time the profile charged the link,
		// ecc and fault layers.
		hops := (counts["link.traversals"] - counts["link.retransmitted"]) / n
		predicted := hops*unitCost["link.hop_ns"] + counts["link.nacks"]/n*unitCost["link.nack_extra_ns"]
		profiled := (prof.ByLayer["link"] + prof.ByLayer["ecc"] + prof.ByLayer["fault"]) / n
		if hops > 0 && profiled > 0 {
			set(wr.PerLayer, "bench.reconcile_ratio", predicted/profiled, nil)
		}
	}
	return wr
}

// combinedDigest is the workload's digest: SHA-256 over its variants'
// digests in variant order.
func combinedDigest(digests map[int]string) string {
	variants := make([]int, 0, len(digests))
	for v := range digests {
		variants = append(variants, v)
	}
	sort.Ints(variants)
	h := sha256.New()
	for _, v := range variants {
		fmt.Fprintf(h, "%d %s\n", v, digests[v])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceFileOf assembles a traced workload's output file.
func traceFileOf(st stamp, w *workload, wr *workloadResult, rounds []roundResult) traceFile {
	tf := traceFile{
		Stamp: st, Workload: w.Name, Metrics: wr.PerLayer,
		Profile: make(map[string]float64), Unmatched: make(map[string]float64),
	}
	for _, r := range rounds {
		if r.Profile != nil {
			for layer, ns := range r.Profile.ByLayer {
				tf.Profile[layer] += ns / 1e7 // 100 Hz: one sample per 10 ms of CPU
			}
			for pkg, ns := range r.Profile.Unattributed {
				tf.Unmatched[pkg] += ns / 1e7
			}
		}
		for _, s := range r.Spans {
			ev := chromeEvent{Name: s.Name, Ph: "X", Ts: s.StartUs, Dur: s.DurUs, Pid: r.Round, Tid: s.Op}
			if s.Parent != "" {
				ev.Args = map[string]string{"parent": s.Parent}
			}
			tf.TraceEvents = append(tf.TraceEvents, ev)
		}
	}
	return tf
}

// report prints every metric by name with its unit.
func (s *suiteResult) report(w io.Writer, names []string) {
	fmt.Fprintf(w, "# %s\n", s.Stamp)
	for _, name := range names {
		wr := s.Workloads[name]
		fmt.Fprintf(w, "\n%s  (%d ops attempted, %d failed, digest %.16s)\n", name, wr.Attempted, wr.Failed, wr.Digest)
		for _, m := range endToEnd {
			if v, ok := wr.EndToEnd[m.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %-10s  round spread %.1f%%\n", m.Name, v.Value, v.Unit, 100*v.Spread)
			}
		}
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "  %-34s %14.4f %-10s\n", "failed_share", wr.FailedShare, "share")
		}
		for _, m := range perLayer {
			if v, ok := wr.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED: %s\n", f)
		}
	}
}

// driverLine is the one-line result the benchmark driver reads: every
// metric of the manifest's end_to_end list (untraced) or per_layer list
// (traced). A per-layer metric the workload never exercises reads 0
// here, because the driver wants every name from every workload; the
// report above and the trace file omit it instead.
func driverLine(wr *workloadResult, traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = metric{Value: wr.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	} else {
		for _, m := range manifestEndToEnd() {
			v, ok := wr.EndToEnd[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			metrics[m.Name] = metric{Value: v.Value, Unit: m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
}
