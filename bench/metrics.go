package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported metric. The tables below are the single
// source of the names, units and bounds: BENCHMARK.json must list the
// same rows (bench_test.go holds the two in sync).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline by which the metric may worsen
	// before -compare calls it regressed. Zero for per-layer metrics,
	// which are reported, never judged.
	Bound float64
	// Partial marks an end-to-end metric only some workloads have. The
	// driver expects every end_to_end row of BENCHMARK.json from every
	// workload, so the manifest carries these among the per-layer rows
	// instead (campaign.points_per_s, serve.first_point_ms,
	// serve.cached_ms); the suite report and -compare judge them here.
	Partial bool
}

// endToEnd lists what a user of the stack waits for or pays. Bounds are
// the issue's (10% on timings and RSS, 2% on allocations) wherever about
// three times the spread measured over ten seeds fits under them, else
// three times that spread, capped at the driver's 25% (README.md,
// "Measured noise").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Partial: true},
	{Name: "first_point_ms", Unit: "ms", Better: "lower", Bound: 0.25, Partial: true},
	{Name: "cached_ms", Unit: "ms", Better: "lower", Bound: 0.25, Partial: true},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// manifestEndToEnd is the subset of endToEnd every workload reports.
func manifestEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Partial {
			out = append(out, m)
		}
	}
	return out
}

// perLayer lists the traced-run metrics, <package>.<metric>. Counts are
// means per op; *_ns/_us unit costs come from timing the layer's public
// functions in isolation (units.go); cpu_share is the layer's share of
// CPU-profile samples (profile.go).
var perLayer = []metricDef{
	{Name: "sim.actor_ticks", Unit: "count", Better: "lower"},
	{Name: "sim.skipped_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.events_dispatched", Unit: "count", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "share", Better: "lower"},
	{Name: "sim.step_idle_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.pipe_ns", Unit: "ns", Better: "lower"},

	{Name: "router.cpu_share", Unit: "share", Better: "lower"},
	{Name: "router.va_allocs", Unit: "count", Better: "lower"},
	{Name: "router.sa_allocs", Unit: "count", Better: "lower"},
	{Name: "router.rt_computes", Unit: "count", Better: "lower"},
	{Name: "router.buf_writes", Unit: "count", Better: "lower"},

	{Name: "link.cpu_share", Unit: "share", Better: "lower"},
	{Name: "link.traversals", Unit: "count", Better: "lower"},
	{Name: "link.retrans_writes", Unit: "count", Better: "lower"},
	{Name: "link.retransmitted", Unit: "count", Better: "lower"},
	{Name: "link.nacks", Unit: "count", Better: "lower"},
	{Name: "link.credits", Unit: "count", Better: "lower"},
	{Name: "link.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "link.hop_nack_ns", Unit: "ns", Better: "lower"},
	{Name: "link.channel_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "link.retrans_capture_ns", Unit: "ns", Better: "lower"},

	{Name: "ecc.cpu_share", Unit: "share", Better: "lower"},
	{Name: "ecc.decodes", Unit: "count", Better: "lower"},
	{Name: "ecc.corrections", Unit: "count", Better: "lower"},
	{Name: "ecc.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.decode_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "ecc.decode_correct_ns", Unit: "ns", Better: "lower"},

	{Name: "fault.cpu_share", Unit: "share", Better: "lower"},
	{Name: "fault.link_injected", Unit: "count", Better: "lower"},
	{Name: "fault.corrupt_clean_ns", Unit: "ns", Better: "lower"},
	{Name: "fault.corrupt_heavy_ns", Unit: "ns", Better: "lower"},
	{Name: "fault.logic_upset_ns", Unit: "ns", Better: "lower"},

	{Name: "ac.cpu_share", Unit: "share", Better: "lower"},
	{Name: "ac.checks", Unit: "count", Better: "lower"},

	{Name: "traffic.cpu_share", Unit: "share", Better: "lower"},
	{Name: "traffic.source_tick_ns", Unit: "ns", Better: "lower"},

	{Name: "routing.cpu_share", Unit: "share", Better: "lower"},
	{Name: "routing.route_xy_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.route_updown_ns", Unit: "ns", Better: "lower"},
	{Name: "routing.rebuild_us", Unit: "us", Better: "lower"},

	{Name: "faultmap.cpu_share", Unit: "share", Better: "lower"},
	{Name: "faultmap.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "faultmap.encode_ns", Unit: "ns", Better: "lower"},

	{Name: "network.cpu_share", Unit: "share", Better: "lower"},
	{Name: "network.new_ms", Unit: "ms", Better: "lower"},
	{Name: "network.run_ms", Unit: "ms", Better: "lower"},
	{Name: "network.cycles", Unit: "cycles", Better: "lower"},
	{Name: "network.avg_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "network.throughput_fnc", Unit: "flits/node/cycle", Better: "higher"},
	{Name: "network.energy_nj_per_msg", Unit: "nJ", Better: "lower"},
	{Name: "network.undeliverable", Unit: "count", Better: "lower"},
	{Name: "network.reachable_frac", Unit: "ratio", Better: "higher"},

	{Name: "campaign.cpu_share", Unit: "share", Better: "lower"},
	{Name: "campaign.parse_spec_us", Unit: "us", Better: "lower"},
	{Name: "campaign.hash_us", Unit: "us", Better: "lower"},
	{Name: "campaign.run_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.write_ndjson_us", Unit: "us", Better: "lower"},
	{Name: "campaign.rep_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "campaign.rep_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "campaign.pool_busy_share", Unit: "share", Better: "higher"},
	{Name: "campaign.points_per_s", Unit: "1/s", Better: "higher"},

	{Name: "serve.cpu_share", Unit: "share", Better: "lower"},
	{Name: "serve.accept_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_get_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cached_post_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher"},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.first_point_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cached_ms", Unit: "ms", Better: "lower"},

	{Name: "fabric.cpu_share", Unit: "share", Better: "lower"},
	{Name: "fabric.shards", Unit: "count", Better: "lower"},
	{Name: "fabric.redispatches", Unit: "count", Better: "lower"},
	{Name: "fabric.worker_sim_cycles", Unit: "cycles", Better: "lower"},
	{Name: "fabric.dispatch_overhead_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.cpu_share", Unit: "share", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.write_text_us", Unit: "us", Better: "lower"},

	{Name: "trace.cpu_share", Unit: "share", Better: "lower"},

	{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.other_cpu_share", Unit: "share", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},

	{Name: "stdlib.http_json_cpu_share", Unit: "share", Better: "lower"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "bench.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.op_ms_quiet", Unit: "ms", Better: "lower"},
	{Name: "bench.host_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
	{Name: "bench.round_spread", Unit: "ratio", Better: "lower"},
	{Name: "bench.profile_attributed_share", Unit: "share", Better: "higher"},
	{Name: "bench.reconcile_ratio", Unit: "ratio", Better: "higher"},
}

// value is one reported number; the unit travels with it into every
// output so no reader has to look the name up.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the distance between the quartiles of the metric's
	// per-round values over their median: the run's own noise floor,
	// which -compare holds against the bound.
	Spread float64 `json:"spread,omitempty"`
}

// stamp is the host shape recorded with every output.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	Rounds     int    `json:"rounds"`
	// Limit is one round's stop condition, "25 ops" or "5s".
	Limit     string `json:"round_limit"`
	Estimator string `json:"estimator"`
	Traced    bool   `json:"traced"`
}

func newStamp(p plan) stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		Seed:       p.Seed,
		Rounds:     p.Rounds,
		Limit:      p.limit(),
		Estimator:  estimatorName,
		Traced:     p.Trace,
	}
}

func (s stamp) String() string {
	return fmt.Sprintf("%s %s/%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d rounds=%dx%s estimator=%q traced=%t",
		s.GoVersion, s.GOOS, s.GOARCH, s.NumCPU, s.GOMAXPROCS, s.Commit, s.Seed, s.Rounds, s.Limit, s.Estimator, s.Traced)
}

// gitCommit identifies the tree under test: the revision the go tool
// stamped into the binary, else whatever git reports for the working
// directory, else "unknown" (an exported checkout has neither).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
