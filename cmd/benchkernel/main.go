// Command benchkernel is the kernel performance harness behind
// scripts/bench.sh. It times the Fig 5/6 quick workloads under every
// scheduler (naive, quiescent, event, parallel) and (optionally) a
// baseline git revision's nocsim binary, runs the kernel
// microbenchmarks, and writes the combined measurements to
// BENCH_kernel.json — the file that seeds the repo's perf trajectory.
//
//	benchkernel -out BENCH_kernel.json            # current tree only
//	benchkernel -baseline HEAD~1                  # plus speedup vs a ref
//
// The baseline comparison builds the ref's nocsim in a temporary git
// worktree and times it on the identical workloads. Results are
// byte-identical across schedulers and revisions (that is separately
// enforced by the differential tests), so cycle counts agree and the
// wall-clock ratio is a pure scheduler/allocator speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ftnoc"
)

// workload is one timed simulation: a config for in-process runs plus
// the equivalent nocsim arguments for timing a baseline binary.
type workload struct {
	name string
	cfg  ftnoc.Config
	args []string
}

// workloads are the quick-scale Fig 5/6 operating points at the low end
// of the error-rate axis (1e-5), where the ROADMAP's throughput demand
// bites: the error-handling machinery is nearly idle and scheduler +
// allocator overhead dominates. The 0.10-injection variant covers the
// low-load end of the paper's 0.1–0.4 operating range, where quiescence
// itself pays the most. The 16x16 large-mesh row ticks 512 actors per
// cycle, the scale at which scheduler bookkeeping shows.
func workloads() []workload {
	quick := func() ftnoc.Config {
		cfg := ftnoc.NewConfig()
		cfg.WarmupMessages = 1_000
		cfg.TotalMessages = 4_000
		cfg.Faults.Link = 1e-5
		return cfg
	}
	fig5 := quick()
	fig6 := quick()
	fig6.Pattern = ftnoc.Tornado
	low := quick()
	low.InjectionRate = 0.10
	large := quick()
	large.Width, large.Height = 16, 16
	large.WarmupMessages = 4_000
	large.TotalMessages = 16_000
	common := []string{"-link-errors", "1e-5", "-messages", "4000", "-warmup", "1000"}
	return []workload{
		{"fig5_quick_hbh_err1e-5", fig5, append([]string{"-inj", "0.25"}, common...)},
		{"fig6_quick_tn_err1e-5", fig6, append([]string{"-inj", "0.25", "-pattern", "TN"}, common...)},
		{"fig56_quick_lowload_inj0.10", low, append([]string{"-inj", "0.10"}, common...)},
		{"large_16x16_inj0.25_err1e-5", large, []string{
			"-width", "16", "-height", "16", "-inj", "0.25",
			"-link-errors", "1e-5", "-messages", "16000", "-warmup", "4000"}},
	}
}

// measurement is one timed run of a workload under one scheduler.
type measurement struct {
	WallMS         float64 `json:"wall_ms"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	SkippedRatio   float64 `json:"skipped_ratio,omitempty"`
	Events         uint64  `json:"events_dispatched,omitempty"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

// workloadResult is a workload's JSON record: one measurement per
// scheduler, keyed by kernel name, each carrying its own
// speedup_vs_naive (the naive entry's is 1).
type workloadResult struct {
	Name              string                 `json:"name"`
	Cycles            uint64                 `json:"cycles"`
	Kernels           map[string]measurement `json:"kernels"`
	Baseline          *measurement           `json:"baseline,omitempty"`
	SpeedupVsBaseline float64                `json:"speedup_vs_baseline,omitempty"`
}

// benchResult is one parsed `go test -bench` line.
type benchResult struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"` // unit -> value (ns/op, allocs/op, ...)
}

// report is the BENCH_kernel.json schema. GOMAXPROCS stamps the host
// shape the numbers were taken on.
type report struct {
	GoVersion   string           `json:"go_version"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	BaselineRef string           `json:"baseline_ref,omitempty"`
	Workloads   []workloadResult `json:"workloads"`
	Microbench  []benchResult    `json:"microbench"`
}

func main() {
	out := flag.String("out", "BENCH_kernel.json", "output file")
	baseline := flag.String("baseline", "", "git ref to build and time as the baseline (empty: skip)")
	reps := flag.Int("reps", 3, "timed repetitions per workload (best run is reported)")
	benchtime := flag.String("benchtime", "2s", "go test -benchtime for the microbenchmarks")
	flag.Parse()

	rep := report{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	var baseBin string
	if *baseline != "" {
		rep.BaselineRef = *baseline
		var cleanup func()
		var err error
		baseBin, cleanup, err = buildBaseline(*baseline)
		if err != nil {
			fatal(err)
		}
		defer cleanup()
	}

	// Every kernel ParseKernel knows about, in canonical order (naive
	// first, so its entry exists when later kernels compute their
	// speedup) — a new kernel lands in the report without touching this
	// harness.
	for _, w := range workloads() {
		fmt.Fprintf(os.Stderr, "benchkernel: %s\n", w.name)
		r := workloadResult{Name: w.name, Kernels: map[string]measurement{}}
		for _, k := range ftnoc.KernelKinds() {
			m, cycles := timeInProcess(w.cfg, k, *reps)
			r.Cycles = cycles
			if naive := r.Kernels[ftnoc.KernelNaive.String()]; naive.WallMS > 0 {
				m.SpeedupVsNaive = round3(m.CyclesPerSec / naive.CyclesPerSec)
			} else if k == ftnoc.KernelNaive {
				m.SpeedupVsNaive = 1
			}
			r.Kernels[k.String()] = m
		}
		if baseBin != "" {
			m := timeBinary(baseBin, w.args, r.Cycles, *reps)
			r.Baseline = &m
			if ev := r.Kernels[ftnoc.KernelEvent.String()]; m.WallMS > 0 {
				r.SpeedupVsBaseline = round3(ev.CyclesPerSec / m.CyclesPerSec)
			}
		}
		rep.Workloads = append(rep.Workloads, r)
	}

	var err error
	rep.Microbench, err = runMicrobench(*benchtime)
	if err != nil {
		fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "benchkernel: wrote", *out)
}

// timeInProcess runs the workload reps times in this process and keeps
// the fastest run (least scheduling noise); results are deterministic so
// every rep simulates the identical cycle count.
func timeInProcess(cfg ftnoc.Config, kind ftnoc.KernelKind, reps int) (measurement, uint64) {
	cfg.Kernel = kind
	var best measurement
	var cycles uint64
	for i := 0; i < reps; i++ {
		net := ftnoc.New(cfg)
		// Level the field between reps: without this, a rep can pay the
		// GC debt of the previous rep's discarded network inside the
		// timed region.
		runtime.GC()
		start := time.Now()
		res := net.Run()
		wall := time.Since(start)
		ks := net.KernelStats()
		m := measurement{
			WallMS:       round3(float64(wall.Microseconds()) / 1e3),
			CyclesPerSec: round3(float64(res.Cycles) / wall.Seconds()),
			Events:       ks.Events,
		}
		if total := ks.Ticked + ks.Skipped; total > 0 {
			m.SkippedRatio = round3(float64(ks.Skipped) / float64(total))
		}
		cycles = res.Cycles
		if best.WallMS == 0 || m.WallMS < best.WallMS {
			best = m
		}
	}
	return best, cycles
}

// timeBinary times an external nocsim binary on the workload's argument
// form. cycles is taken from the in-process run: the runs are
// byte-identical by construction, so the simulated horizon agrees.
func timeBinary(bin string, args []string, cycles uint64, reps int) measurement {
	var best measurement
	for i := 0; i < reps; i++ {
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = nil, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			fatal(fmt.Errorf("baseline run: %w", err))
		}
		wall := time.Since(start)
		m := measurement{
			WallMS:       round3(float64(wall.Microseconds()) / 1e3),
			CyclesPerSec: round3(float64(cycles) / wall.Seconds()),
		}
		if best.WallMS == 0 || m.WallMS < best.WallMS {
			best = m
		}
	}
	return best
}

// buildBaseline checks the ref out into a temporary git worktree, builds
// its nocsim, and returns the binary path plus a cleanup function.
func buildBaseline(ref string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "benchkernel-baseline-*")
	if err != nil {
		return "", nil, err
	}
	tree := filepath.Join(dir, "tree")
	cleanup := func() {
		exec.Command("git", "worktree", "remove", "--force", tree).Run()
		os.RemoveAll(dir)
	}
	if out, err := exec.Command("git", "worktree", "add", "--detach", tree, ref).CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("git worktree add %s: %v\n%s", ref, err, out)
	}
	bin := filepath.Join(dir, "nocsim")
	build := exec.Command("go", "build", "-o", bin, "./cmd/nocsim")
	build.Dir = tree
	if out, err := build.CombinedOutput(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("baseline build: %v\n%s", err, out)
	}
	return bin, cleanup, nil
}

// runMicrobench executes the kernel microbenchmarks via `go test` and
// parses the standard benchmark output lines.
func runMicrobench(benchtime string) ([]benchResult, error) {
	cmd := exec.Command("go", "test", "ftnoc/internal/network",
		"-run", "^$", "-bench", "BenchmarkKernel", "-benchtime", benchtime, "-benchmem", "-count", "1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	var results []benchResult
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := benchResult{Name: strings.TrimSuffix(fields[0], "-"+strconv.Itoa(runtime.GOMAXPROCS(0))), N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("go test -bench produced no benchmark lines:\n%s", out)
	}
	return results, nil
}

// round3 trims float noise so the JSON diffs stay readable.
func round3(v float64) float64 {
	s, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 3, 64), 64)
	if err != nil {
		return v
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchkernel:", err)
	os.Exit(1)
}
