// Package experiments regenerates every table and figure of the paper's
// evaluation. The figures are one table of grids: each grid sweeps one
// parameter of the paper's platform (§2.2: 8x8 mesh, 3-stage routers,
// 3 VCs/PC, 4-flit messages) for each of its series, and each of its
// figures reads one metric off the same runs. Absolute numbers come from
// our simulator and calibrated power model, so they are not the authors'
// testbed numbers — EXPERIMENTS.md records the shape comparisons.
package experiments

import (
	"context"
	"fmt"

	"ftnoc/internal/campaign"
	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/power"
	"ftnoc/internal/routing"
	"ftnoc/internal/traffic"
)

// Scale selects run length: Quick for tests/benches, Full for the paper's
// 300k-message runs.
type Scale uint8

// Scales.
const (
	Quick Scale = iota + 1
	Full
	// Tiny is for the test suite: a 4x4 platform with a few hundred
	// messages per point — enough to verify every figure's structure
	// and orderings in seconds.
	Tiny
)

// ErrorRates is the x-axis of Figs. 5, 6 and 7.
var ErrorRates = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}

// LogicErrorRates is the x-axis of Fig. 13.
var LogicErrorRates = []float64{1e-5, 1e-4, 1e-3, 1e-2}

// InjectionRates is the x-axis of Figs. 8 and 9.
var InjectionRates = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// baseConfig is the paper's evaluation platform.
func baseConfig(scale Scale) network.Config {
	cfg := network.NewConfig()
	switch scale {
	case Full:
		cfg = cfg.PaperScale()
	case Tiny:
		cfg.Width, cfg.Height = 4, 4
		cfg.WarmupMessages = 150
		cfg.TotalMessages = 900
		cfg.MaxCycles = 200_000
		cfg.StallCycles = 60_000
	default:
		cfg.WarmupMessages = 1_000
		cfg.TotalMessages = 4_000
		cfg.MaxCycles = 400_000
		cfg.StallCycles = 120_000
	}
	return cfg
}

// A grid is one sweep of the evaluation: each (x, series) cell is one
// run of baseConfig with set applied, and each of its figures reads its
// metric off those same runs.
type grid struct {
	xLabel  string
	xs      []float64
	series  []string
	set     func(cfg *network.Config, scale Scale, x float64, s int)
	figures []figure
}

// A figure's metric is the value series s plots for one run.
type figure struct {
	id, title, yLabel string
	metric            func(res network.Results, s int) float64
}

func latency(res network.Results, _ int) float64 { return res.AvgLatency }

func energy(res network.Results, _ int) float64 {
	return power.EnergyPerMessage(res.Events, res.MeasuredMessages)
}

// fig13Classes are Fig. 13's series: each fault class in isolation.
var fig13Classes = []fault.Class{fault.LinkError, fault.RTLogic, fault.SALogic}

// table is the paper's evaluation, in the order the figures print.
var table = []grid{{
	// Fig. 5: the three link-error schemes at 0.25 flits/node/cycle.
	xLabel: "error_rate", xs: ErrorRates, series: []string{"HBH", "E2E", "FEC"},
	set: func(cfg *network.Config, _ Scale, x float64, s int) {
		cfg.Protection = []link.Protection{link.HBH, link.E2E, link.FEC}[s]
		cfg.Faults.Link = x
	},
	figures: []figure{{"Fig5", "Latency of different error handling techniques (inj 0.25)", "latency (cycles)", latency}},
}, {
	// Figs. 6 and 7: HBH under the three traffic patterns.
	xLabel: "error_rate", xs: ErrorRates, series: []string{"NR", "BC", "TN"},
	set: func(cfg *network.Config, _ Scale, x float64, s int) {
		cfg.Pattern = []traffic.Pattern{traffic.UniformRandom, traffic.BitComplement, traffic.Tornado}[s]
		cfg.Faults.Link = x
	},
	figures: []figure{
		{"Fig6", "Latency overhead of the HBH retransmission scheme (inj 0.25)", "latency (cycles)", latency},
		{"Fig7", "Energy overhead of the HBH retransmission scheme (inj 0.25)", "energy (nJ/message)", energy},
	},
}, {
	// Fig. 13: each fault class injected in isolation, as the paper does.
	xLabel: "error_rate", xs: LogicErrorRates, series: []string{"LINK-HBH", "RT-Logic", "SA-Logic"},
	set: func(cfg *network.Config, _ Scale, x float64, s int) {
		switch fig13Classes[s] {
		case fault.LinkError:
			cfg.Faults.Link = x
		case fault.RTLogic:
			cfg.Faults.RT = x
		case fault.SALogic:
			cfg.Faults.SA = x
		}
	},
	figures: []figure{
		{"Fig13a", "Number of corrected errors (inj 0.25)", "# errors corrected", func(res network.Results, s int) float64 {
			return float64(res.Counters.Corrected[fig13Classes[s]])
		}},
		{"Fig13b", "Energy per packet under soft-error correction (inj 0.25)", "energy (nJ/message)", energy},
	},
}, {
	// Figs. 8 and 9: adaptive (AD) against deterministic (DT) routing.
	xLabel: "inj_rate", xs: InjectionRates, series: []string{"AD", "DT"},
	set: func(cfg *network.Config, scale Scale, x float64, s int) {
		cfg.Routing = []routing.Algorithm{routing.MinimalAdaptive, routing.XY}[s]
		cfg.InjectionRate = x
		// Beyond saturation the network cannot eject TotalMessages in
		// bounded time at the offered rate; measure a fixed horizon, in
		// which utilization runs never "stall".
		cfg.StallCycles = cfg.MaxCycles
		switch scale {
		case Full:
			cfg.MaxCycles = 300_000
		case Tiny:
			cfg.MaxCycles = 10_000
		default:
			cfg.MaxCycles = 30_000
		}
	},
	figures: []figure{
		{"Fig8", "Transmission buffer utilization vs injection rate", "utilization", func(res network.Results, _ int) float64 { return res.TxBufUtil }},
		{"Fig9", "Retransmission buffer utilization vs injection rate", "utilization", func(res network.Results, _ int) float64 { return res.RtBufUtil }},
	},
}}

// Run regenerates the figures named by ids (every figure when there are
// none) and returns them in table order. The grids they read off run
// once each, all in one campaign.RunConfigs batch on workers workers
// (0 = GOMAXPROCS); each run keeps the platform's seed, so batching and
// worker count leave every value unchanged.
func Run(scale Scale, workers int, ids ...string) ([]Figure, error) {
	want, found := map[string]bool{}, map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var grids []grid // the grids run, each holding only its figures asked for
	var cfgs []network.Config
	for _, g := range table {
		var asked []figure
		for _, f := range g.figures {
			if len(ids) == 0 || want[f.id] {
				asked = append(asked, f)
				found[f.id] = true
			}
		}
		if asked == nil {
			continue
		}
		g.figures = asked
		grids = append(grids, g)
		for _, x := range g.xs {
			for s := range g.series {
				cfg := baseConfig(scale)
				g.set(&cfg, scale, x, s)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	for _, id := range ids {
		if !found[id] {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
	}

	points := campaign.RunConfigs(context.Background(), workers, cfgs).Points
	var figs []Figure
	for _, g := range grids {
		for _, f := range g.figures {
			fig := Figure{ID: f.id, Title: f.title, XLabel: g.xLabel, YLabel: f.yLabel, Series: g.series}
			for xi, x := range g.xs {
				row := Row{X: x, Values: map[string]float64{}}
				for s, name := range g.series {
					p := points[xi*len(g.series)+s]
					if p.Err != nil {
						return nil, fmt.Errorf("%s at %g, %s: %w", f.id, x, name, p.Err)
					}
					row.Values[name] = f.metric(p.Reps[0].Results, s)
				}
				fig.Rows = append(fig.Rows, row)
			}
			figs = append(figs, fig)
		}
		points = points[len(g.xs)*len(g.series):]
	}
	return figs, nil
}

// Row is one (x, series value) record of a figure.
type Row struct {
	X      float64
	Values map[string]float64
}

// Figure is a regenerated figure: ordered series names plus one row per
// x-axis point.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Rows   []Row
}

// Table1Row is one line of Table 1.
type Table1Row struct {
	Component string
	PowerMW   float64
	AreaMM2   float64
	PowerPct  float64 // overhead vs the generic router; 0 for the router itself
	AreaPct   float64
}

// Table1 regenerates the paper's Table 1: the AC unit's power and area
// against the generic 5-PC, 4-VC router.
func Table1() []Table1Row {
	c := power.PaperRouter()
	ov := power.ACOverhead(c)
	return []Table1Row{
		{Component: "Generic NoC Router (5 PCs, 4 VCs per PC)", PowerMW: ov.BasePowerMW, AreaMM2: ov.BaseAreaMM2},
		{
			Component: "Allocation Comparator (AC)",
			PowerMW:   ov.AddPowerMW, AreaMM2: ov.AddAreaMM2,
			PowerPct: ov.PowerPct(), AreaPct: ov.AreaPct(),
		},
	}
}
