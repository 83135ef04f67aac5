// Command sweep produces latency-throughput curves: it sweeps the
// injection rate and prints offered load, accepted throughput, average
// latency and energy per message — the standard way to characterise a
// NoC configuration beyond the paper's fixed 0.25 operating point.
//
// Points run in parallel on the campaign engine (default GOMAXPROCS
// workers), optionally replicated across seeds (-seeds N prints each
// metric's 95% confidence half-width), and ^C aborts cleanly, reporting
// the points that completed.
//
//	sweep -routing adaptive -link-errors 1e-3 -from 0.05 -to 0.5 -step 0.05
//	sweep -pattern TN -seeds 5 -workers 8 -csv sweep.csv
//	sweep -seeds 3 -timeline spans.json   # engine span timeline for chrome://tracing
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ftnoc"
	"ftnoc/internal/campaign"
	"ftnoc/internal/trace"
)

func main() {
	cfg := ftnoc.NewConfig()
	from := flag.Float64("from", 0.05, "first injection rate")
	to := flag.Float64("to", 0.50, "last injection rate")
	step := flag.Float64("step", 0.05, "injection rate step")
	width := flag.Int("width", cfg.Width, "mesh width")
	height := flag.Int("height", cfg.Height, "mesh height")
	vcs := flag.Int("vcs", cfg.VCs, "virtual channels per PC")
	routingName := flag.String("routing", "xy", "routing algorithm: xy, adaptive, westfirst, oddeven, fault-adaptive")
	patternName := flag.String("pattern", "NR", "traffic pattern: NR, BC, TN, TP, SH, HS")
	protName := flag.String("protection", "hbh", "link protection: hbh, e2e, fec")
	linkErr := flag.Float64("link-errors", 0, "link error rate")
	mortalityAxis := flag.String("mortality", "", "hard-fault schedule axis: semicolon-separated schedules (each in link:3E@1000,router:9@4000 / hazard:RATE@START-STOP grammar; 'none' for the fault-free point)")
	messages := flag.Uint64("messages", 4000, "messages per point (incl. warm-up)")
	seed := flag.Uint64("seed", 1, "base simulation seed")
	seeds := flag.Int("seeds", 1, "replicates per point (distinct derived seeds; metrics print mean ± 95% CI)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	check := flag.Bool("check", false, "run the invariant checker inside every replicate; violations fail the replicate")
	csvOut := flag.String("csv", "", "also write the full result table to this CSV file")
	ndjsonOut := flag.String("ndjson", "", "also write the per-replicate result table to this NDJSON file")
	timelineOut := flag.String("timeline", "", "write the campaign span timeline (Chrome trace JSON, open in chrome://tracing or Perfetto) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	routing, err := ftnoc.ParseRouting(*routingName)
	if err != nil {
		fatal(err)
	}
	pattern, err := ftnoc.ParsePattern(*patternName)
	if err != nil {
		fatal(err)
	}
	protection, err := ftnoc.ParseProtection(*protName)
	if err != nil {
		fatal(err)
	}

	cfg.Width, cfg.Height = *width, *height
	cfg.VCs = *vcs
	cfg.Routing = routing
	cfg.Pattern = pattern
	cfg.Protection = protection
	cfg.Faults.Link = *linkErr
	cfg.TotalMessages = *messages
	cfg.WarmupMessages = *messages / 4
	cfg.Seed = *seed
	// Past saturation a fixed message count cannot eject in bounded time;
	// cap the horizon and report what was measured.
	cfg.MaxCycles = 400_000
	cfg.StallCycles = cfg.MaxCycles

	rates, err := rateList(*from, *to, *step)
	if err != nil {
		fatal(err)
	}
	spec := campaign.Spec{
		Base:           cfg,
		InjectionRates: rates,
		Seeds:          *seeds,
		Workers:        *workers,
		Invariants:     *check,
	}
	if *mortalityAxis != "" {
		// Schedules use commas internally, so the axis separator is ";".
		for _, term := range strings.Split(*mortalityAxis, ";") {
			m, err := ftnoc.ParseMortality(strings.TrimSpace(term))
			if err != nil {
				fatal(err)
			}
			spec.MortalitySchedules = append(spec.MortalitySchedules, m)
		}
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	// The engine's span stream (campaign → point → replicate) renders
	// directly as a Chrome trace: lanes for the campaign, each grid
	// point's wall window, and per-worker replicate execution.
	var timeline *trace.ChromeTrace
	if *timelineOut != "" {
		f, err := os.Create(*timelineOut)
		if err != nil {
			fatal(err)
		}
		timeline = trace.NewChromeTrace(f)
		spec.Progress = timeline
		defer func() {
			if err := timeline.Close(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr, "sweep: wrote", *timelineOut)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once the first interrupt fires, stop intercepting: a second ^C gets
	// the default handling and kills the process instead of being ignored
	// while the engine drains in-flight points.
	context.AfterFunc(ctx, stop)
	report, err := campaign.Run(ctx, spec)
	if err != nil {
		fatal(err)
	}
	if report.Aborted {
		fmt.Fprintln(os.Stderr, "sweep: interrupted — reporting completed points only")
	}

	degradation := len(spec.MortalitySchedules) > 0
	if degradation {
		fmt.Printf("%-10s %-34s %-18s %-22s %-12s %-10s %-8s\n",
			"offered", "mortality", "accepted", "avg_latency", "p95_latency", "undeliv", "reach")
	} else {
		fmt.Printf("%-10s %-18s %-22s %-12s %-10s\n", "offered", "accepted", "avg_latency", "p95_latency", "nJ/msg")
	}
	for _, p := range report.Points {
		if p.Err != nil {
			fmt.Printf("%-10.3f %s\n", p.InjectionRate, p.Err)
			continue
		}
		if p.Agg.Completed == 0 {
			fmt.Printf("%-10.3f (aborted before completion)\n", p.InjectionRate)
			continue
		}
		if degradation {
			fmt.Printf("%-10.3f %-34s %-18s %-22s %-12.0f %-10.1f %-8.4f\n",
				p.InjectionRate, p.Mortality.String(),
				fmt.Sprintf("%.4f", p.Agg.Throughput.Mean)+ci(p.Agg.Throughput.CI95, 4),
				fmt.Sprintf("%.2f", p.Agg.AvgLatency.Mean)+ci(p.Agg.AvgLatency.CI95, 2),
				p.Agg.P95Latency.Mean, p.Agg.Undeliverable.Mean, p.Agg.ReachableFrac.Mean)
			continue
		}
		fmt.Printf("%-10.3f %-18s %-22s %-12.0f %-10.4f\n",
			p.InjectionRate,
			fmt.Sprintf("%.4f", p.Agg.Throughput.Mean)+ci(p.Agg.Throughput.CI95, 4),
			fmt.Sprintf("%.2f", p.Agg.AvgLatency.Mean)+ci(p.Agg.AvgLatency.CI95, 2),
			p.Agg.P95Latency.Mean, p.Agg.EnergyPerMsgNJ.Mean)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d points x %d seed(s) in %v on %d workers\n",
		len(report.Points), max(*seeds, 1), report.Elapsed.Round(1_000_000), report.Workers)
	fmt.Fprintln(os.Stderr, "sweep: kernel:", kernelSummary(report))

	if *csvOut != "" {
		writeTable(*csvOut, report.WriteCSV)
	}
	if *ndjsonOut != "" {
		writeTable(*ndjsonOut, report.WriteNDJSON)
	}
}

// kernelSummary aggregates scheduler throughput across every completed
// replicate: simulated cycles per wall-clock second (summed over the
// pool's workers), the fraction of actor ticks elided relative to
// ticking every actor every cycle, and ticks dispatched.
func kernelSummary(report *campaign.Report) string {
	var cycles, ticked, skipped, events uint64
	for _, p := range report.Points {
		for _, rr := range p.Reps {
			if rr.Err != nil || rr.Seed == 0 {
				continue
			}
			cycles += rr.Results.Cycles
			ticked += rr.KernelTicked
			skipped += rr.KernelSkipped
			events += rr.KernelEvents
		}
	}
	rate := "n/a"
	if report.Elapsed > 0 {
		rate = fmt.Sprintf("%.0f cycles/sec", float64(cycles)/report.Elapsed.Seconds())
	}
	if ticked+skipped == 0 {
		return rate
	}
	s := fmt.Sprintf("%s aggregate, %.1f%% actor ticks skipped",
		rate, 100*float64(skipped)/float64(ticked+skipped))
	if events > 0 {
		s += fmt.Sprintf(", %d events dispatched", events)
	}
	return s
}

// ci renders a confidence half-width suffix ("±x.xx"), or nothing for
// unreplicated points.
func ci(halfWidth float64, prec int) string {
	if halfWidth == 0 {
		return ""
	}
	return fmt.Sprintf("±%.*f", prec, halfWidth)
}

// writeTable writes one of the report's table formats to path.
func writeTable(path string, render func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := render(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "sweep: wrote", path)
}

// writeMemProfile snapshots the heap to path (no-op when empty).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// rateList expands -from/-to/-step into the injection-rate axis. Each
// rate is from + i*step rounded to 12 significant digits, so binary
// rounding error neither accumulates along the list nor reaches the
// offered column (0.15, not 0.15000000000000002).
func rateList(from, to, step float64) ([]float64, error) {
	if !(step > 0) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("-step must be positive, have %g", step)
	}
	if !(to >= from) || math.IsInf(from, 0) || math.IsInf(to, 0) {
		return nil, fmt.Errorf("-from %g -to %g is not a finite ascending range", from, to)
	}
	var rates []float64
	for i := 0; ; i++ {
		rate, _ := strconv.ParseFloat(strconv.FormatFloat(from+float64(i)*step, 'g', 12, 64), 64)
		if rate > to+1e-9 {
			return rates, nil
		}
		rates = append(rates, rate)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
