// Command nocsim runs one network simulation and prints its measurements.
//
// Example (the paper's platform with 1e-3 link errors):
//
//	nocsim -width 8 -height 8 -vcs 3 -inj 0.25 -link-errors 1e-3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ftnoc"
	"ftnoc/internal/visual"
)

func main() {
	cfg := ftnoc.NewConfig()

	width := flag.Int("width", cfg.Width, "mesh width")
	height := flag.Int("height", cfg.Height, "mesh height")
	torus := flag.Bool("torus", false, "use a torus instead of a mesh")
	vcs := flag.Int("vcs", cfg.VCs, "virtual channels per physical channel")
	bufDepth := flag.Int("buf", cfg.BufDepth, "input buffer depth per VC (flits)")
	depth := flag.Int("pipeline", cfg.PipelineDepth, "router pipeline depth (1-4)")
	packet := flag.Int("packet", cfg.PacketSize, "flits per message")
	inj := flag.Float64("inj", cfg.InjectionRate, "injection rate (flits/node/cycle)")
	pattern := flag.String("pattern", "NR", "traffic pattern: NR, BC, TN, TP, SH, HS")
	route := flag.String("routing", "xy", "routing: xy, adaptive, west-first, odd-even, fault-adaptive")
	prot := flag.String("protection", "hbh", "link protection: hbh, e2e, fec")
	linkErr := flag.Float64("link-errors", 0, "link error rate per flit traversal")
	mortality := flag.String("mortality", "", "hard-fault schedule: link:NODEDIR@CYCLE, router:NODE@CYCLE, hazard:RATE@START-STOP terms (comma-separated)")
	rtErr := flag.Float64("rt-errors", 0, "routing-unit upset rate per computation")
	vaErr := flag.Float64("va-errors", 0, "VC-allocator upset rate per allocation")
	saErr := flag.Float64("sa-errors", 0, "switch-allocator upset rate per arbitration")
	noAC := flag.Bool("no-ac", false, "disable the Allocation Comparator")
	noRecovery := flag.Bool("no-recovery", false, "disable deadlock recovery")
	duplicate := flag.Bool("duplicate-retrans", false, "duplicate retransmission buffers (section 4.5)")
	messages := flag.Uint64("messages", cfg.TotalMessages, "messages to eject (incl. warm-up)")
	warmup := flag.Uint64("warmup", cfg.WarmupMessages, "warm-up messages to discard")
	seed := flag.Uint64("seed", cfg.Seed, "simulation seed")
	paperScale := flag.Bool("paper-scale", false, "use the paper's 300k-message runs")
	heatmap := flag.Bool("heatmap", false, "print a per-router buffer-utilization floorplan")
	tracePIDs := flag.String("trace", "", "comma-separated packet IDs whose journeys to record and print (ID k*nodes+n+1 is node n's k-th packet, from 0)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event file (open in Perfetto / chrome://tracing)")
	eventsOut := flag.String("events-out", "", "stream structured events to an NDJSON file")
	metricsOut := flag.String("metrics-out", "", "stream sampled per-router metrics to an NDJSON file")
	metricsEvery := flag.Uint64("metrics-every", 100, "metrics sampling interval in cycles")
	check := flag.Bool("check", false, "run the runtime invariant checker alongside the simulation; exit non-zero on any violation")
	checkEvery := flag.Uint64("check-every", 1, "with -check, audit network state every N cycles (1 = every cycle)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	configPath := flag.String("config", "", "load the configuration from a JSON file (other config flags except -trace are ignored)")
	saveConfig := flag.String("save-config", "", "write the effective configuration to a JSON file and exit")
	flag.Parse()

	cfg.Width, cfg.Height = *width, *height
	if *torus {
		cfg.TopologyKind = ftnoc.Torus
	}
	cfg.VCs = *vcs
	cfg.BufDepth = *bufDepth
	cfg.PipelineDepth = *depth
	cfg.PacketSize = *packet
	cfg.InjectionRate = *inj
	cfg.ACEnabled = !*noAC
	cfg.RecoveryEnabled = !*noRecovery
	cfg.DuplicateRetrans = *duplicate
	cfg.TotalMessages = *messages
	cfg.WarmupMessages = *warmup
	cfg.Seed = *seed
	cfg.Faults.Link = *linkErr
	cfg.Faults.RT = *rtErr
	cfg.Faults.VA = *vaErr
	cfg.Faults.SA = *saErr
	if *paperScale {
		cfg = cfg.PaperScale()
	}
	pids, err := parsePIDs(*tracePIDs)
	if err != nil {
		fatal(err)
	}

	if cfg.Pattern, err = ftnoc.ParsePattern(*pattern); err != nil {
		fatal(err)
	}
	if cfg.Routing, err = ftnoc.ParseRouting(*route); err != nil {
		fatal(err)
	}
	if *mortality != "" {
		if cfg.Faults.Mortality, err = ftnoc.ParseMortality(*mortality); err != nil {
			fatal(err)
		}
	}
	if cfg.Protection, err = ftnoc.ParseProtection(*prot); err != nil {
		fatal(err)
	}
	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = ftnoc.ReadConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	// -trace, when given, applies on top of a -config load.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			cfg.TracePIDs = pids
		}
	})
	if *saveConfig != "" {
		f, err := os.Create(*saveConfig)
		if err != nil {
			fatal(err)
		}
		if err := cfg.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *saveConfig)
		return
	}

	// Observability sinks: Chrome trace, NDJSON event stream, metrics.
	var closers []func() error
	var sinks []ftnoc.TraceSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		ct := ftnoc.NewChromeTrace(f)
		ct.ProcessName = func(node int) string {
			return fmt.Sprintf("router %d (%d,%d)", node, node%cfg.Width, node/cfg.Width)
		}
		ct.ThreadName = func(port int) string {
			return fmt.Sprintf("port %v", ftnoc.Port(port))
		}
		sinks = append(sinks, ct)
		closers = append(closers, ct.Close, f.Close)
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		nd := ftnoc.NewNDJSONTrace(f)
		sinks = append(sinks, nd)
		closers = append(closers, nd.Close, f.Close)
	}
	cfg.TraceSink = ftnoc.TeeTrace(sinks...)
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		m := ftnoc.NewMetrics(f, *metricsEvery)
		cfg.Metrics = m
		closers = append(closers, m.Close, f.Close)
	}

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

	// Validate up front so a bad flag combination prints one line, not a
	// stack trace; ^C aborts the run and reports the partial measurements.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Once the first interrupt fires, stop intercepting: a second ^C gets
	// the default handling and kills the process instead of being ignored
	// while the simulator finishes the abort path.
	context.AfterFunc(ctx, stop)
	// The invariant checker is an observability attachment, applied after
	// any -config load rather than read from it.
	var chk *ftnoc.InvariantChecker
	if *check {
		chk = ftnoc.NewInvariantChecker(ftnoc.InvariantConfig{Every: *checkEvery})
		cfg.Invariants = chk
	}
	net := ftnoc.New(cfg)
	wallStart := time.Now()
	res := net.RunContext(ctx)
	wall := time.Since(wallStart)
	if res.Aborted {
		fmt.Fprintln(os.Stderr, "nocsim: interrupted — reporting partial measurements")
	}

	for _, c := range closers {
		if err := c(); err != nil {
			fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
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

	fmt.Printf("platform:       %dx%d %v, %d VCs/PC, %d-flit buffers, %d-stage routers\n",
		cfg.Width, cfg.Height, cfg.TopologyKind, cfg.VCs, cfg.BufDepth, cfg.PipelineDepth)
	fmt.Printf("workload:       %v @ %.3f flits/node/cycle, %d-flit messages, routing %v, protection %v\n",
		cfg.Pattern, cfg.InjectionRate, cfg.PacketSize, cfg.Routing, cfg.Protection)
	fmt.Printf("delivered:      %d messages in %d cycles (stalled: %v, aborted: %v)\n",
		res.Delivered, res.Cycles, res.Stalled, res.Aborted)
	fmt.Printf("kernel:         %s\n", kernelSummary(net, res.Cycles, wall))
	fmt.Printf("latency:        avg %.2f, p95 %.0f, max %.0f cycles\n", res.AvgLatency, res.P95Latency, res.MaxLatency)
	fmt.Printf("throughput:     %s\n", res.Throughput)
	fmt.Printf("energy:         %.4f nJ/message\n", ftnoc.EnergyPerMessageNJ(res))
	fmt.Printf("buffer util:    transmission %.4f, retransmission %.4f\n", res.TxBufUtil, res.RtBufUtil)
	fmt.Printf("fault handling: %d NACKs, %d retransmissions, %d flits dropped\n",
		res.Counters.NACKs, res.Counters.Retransmissions, res.Counters.DroppedFlits)
	var classes []ftnoc.FaultClass
	for _, m := range []map[ftnoc.FaultClass]uint64{res.Counters.Injected, res.Counters.Corrected, res.Counters.Undetected} {
		for cl, n := range m {
			if n > 0 && !slices.Contains(classes, cl) {
				classes = append(classes, cl)
			}
		}
	}
	slices.Sort(classes)
	for _, cl := range classes {
		fmt.Printf("  %-9v injected %d, corrected %d, undetected %d\n",
			cl, res.Counters.Injected[cl], res.Counters.Corrected[cl], res.Counters.Undetected[cl])
	}
	if res.Undeliverable > 0 || res.DeadLinks > 0 || res.DeadRouters > 0 {
		fmt.Printf("hard faults:    %d dead links, %d dead routers, %d undeliverable messages\n",
			res.DeadLinks, res.DeadRouters, res.Undeliverable)
		fmt.Printf("degradation:    reachable pairs %.4f, post-fault throughput %.4f flits/node/cycle\n",
			res.ReachablePairFraction, res.PostFaultThroughput)
	}
	if res.Recoveries > 0 || res.ProbesSent > 0 {
		fmt.Printf("deadlock:       %d probes, %d recovery episodes\n", res.ProbesSent, res.Recoveries)
	}
	if res.CorruptedPackets+res.LostPackets+res.E2ENACKs > 0 {
		fmt.Printf("end-to-end:     %d corrupted, %d retransmit requests, %d re-sent, %d lost (buf max %d)\n",
			res.CorruptedPackets, res.E2ENACKs, res.E2ERetransmits, res.LostPackets, res.E2EBufMax)
	}
	if hist := res.LatencyHist; len(hist) > 0 && res.Delivered > 0 {
		vals := make([]float64, len(hist))
		for i, c := range hist {
			vals[i] = float64(c)
		}
		fmt.Printf("latency dist:   %s (10-cycle bins from 0)\n", visual.Sparkline(vals))
	}
	tracedPIDs := make([]uint64, 0, len(res.Traces))
	for pid := range res.Traces {
		tracedPIDs = append(tracedPIDs, pid)
	}
	sort.Slice(tracedPIDs, func(i, j int) bool { return tracedPIDs[i] < tracedPIDs[j] })
	for _, pid := range tracedPIDs {
		fmt.Printf("\ntrace of packet %d:\n", pid)
		for _, l := range res.Traces[pid] {
			fmt.Println(" ", l)
		}
	}
	if *heatmap && res.RouterTxUtil != nil {
		fmt.Println()
		fmt.Print(visual.Heatmap(cfg.Width, cfg.Height, 0,
			"per-router transmission-buffer utilization",
			func(x, y int) float64 { return res.RouterTxUtil[y*cfg.Width+x] }))
	}
	if chk != nil {
		injected, ejected, dropped, events := chk.Stats()
		if err := chk.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "nocsim: invariant check FAILED:", err)
			for i, v := range chk.Violations() {
				if i >= 20 {
					fmt.Fprintf(os.Stderr, "  ... and %d more\n", chk.Total()-i)
					break
				}
				fmt.Fprintln(os.Stderr, " ", v)
			}
			os.Exit(1)
		}
		fmt.Printf("invariants:     clean — %d packets injected, %d ejected, %d dropped terminally (%d events audited)\n",
			injected, ejected, dropped, events)
	}
}

// kernelSummary renders the end-of-run scheduling line: simulated cycles
// per wall-clock second, the fraction of actor ticks elided relative to
// ticking every actor every cycle, how many ticks were dispatched, and
// how many steps ticked as two shards.
func kernelSummary(net *ftnoc.Network, cycles uint64, wall time.Duration) string {
	ks := net.KernelStats()
	rate := "n/a"
	if wall > 0 {
		rate = fmt.Sprintf("%.0f cycles/sec", float64(cycles)/wall.Seconds())
	}
	s := fmt.Sprintf("%s (wall %v)", rate, wall.Round(time.Millisecond))
	if k := ks.Summary(); k != "" {
		s += ", " + k
	}
	return s
}

// parsePIDs parses the -trace flag: a comma-separated packet ID list.
// Empty (the default) disables journey tracing; "0" is a valid packet ID
// list entry no longer conflated with "disabled".
func parsePIDs(s string) ([]uint64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var pids []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pid, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -trace packet ID %q: %v", part, err)
		}
		pids = append(pids, pid)
	}
	return pids, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
