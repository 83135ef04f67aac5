// Package experiments regenerates every table and figure of the paper's
// evaluation. Each generator builds the paper's platform (§2.2: 8x8 mesh,
// 3-stage routers, 3 VCs/PC, 4-flit messages), sweeps the figure's
// parameter, and returns the series the paper plots. Absolute numbers
// come from our simulator and calibrated power model, so they are not the
// authors' testbed numbers — EXPERIMENTS.md records the shape
// comparisons.
package experiments

import (
	"context"
	"fmt"
	"io"

	"ftnoc/internal/campaign"
	"ftnoc/internal/fault"
	"ftnoc/internal/link"
	"ftnoc/internal/network"
	"ftnoc/internal/power"
	"ftnoc/internal/routing"
	"ftnoc/internal/traffic"
)

// Workers bounds the campaign worker pool every generator's grid runs on
// (0 = GOMAXPROCS). Figure regeneration is embarrassingly parallel —
// each point is an independent simulation — so the generators batch
// their sweeps through campaign.RunConfigs instead of looping serially.
var Workers int

// runAll executes a generator's configuration list in parallel, each
// config under its own seed, returning results in input order.
// Generators build valid configurations by construction, so a failure is
// a programmer error and panics, matching network.New.
func runAll(cfgs []network.Config) []network.Results {
	report := campaign.RunConfigs(context.Background(), Workers, cfgs)
	res := make([]network.Results, len(cfgs))
	for i, p := range report.Points {
		if p.Err != nil {
			panic("experiments: " + p.Err.Error())
		}
		res[i] = p.Reps[0].Results
	}
	return res
}

// Scale selects run length: Quick for tests/benches, Full for the paper's
// 300k-message runs.
type Scale uint8

// Scales.
const (
	Quick Scale = iota + 1
	Full
	// Tiny is for the test suite: a 4x4 platform with a few hundred
	// messages per point — enough to verify every generator's structure
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

// Row is one (x, series value) record of a figure.
type Row struct {
	X      float64
	Values map[string]float64
}

// Figure is a regenerated table or figure: ordered series names plus one
// row per x-axis point.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Rows   []Row
}

// Fprint renders the figure as an aligned text table.
func (f Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%14s", s)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-12.6g", r.X)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%14.4g", r.Values[s])
		}
		fmt.Fprintln(w)
	}
}

// Fig5 compares the average message latency of the three link-error
// handling schemes (HBH, E2E, FEC) across link error rates at 0.25
// flits/node/cycle injection.
func Fig5(scale Scale) Figure {
	fig := Figure{
		ID:     "Fig5",
		Title:  "Latency of different error handling techniques (inj 0.25)",
		XLabel: "error_rate",
		YLabel: "latency (cycles)",
		Series: []string{"HBH", "E2E", "FEC"},
	}
	schemes := []link.Protection{link.HBH, link.E2E, link.FEC}
	var cfgs []network.Config
	for _, rate := range ErrorRates {
		for _, prot := range schemes {
			cfg := baseConfig(scale)
			cfg.Protection = prot
			cfg.Faults.Link = rate
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(cfgs)
	for ri, rate := range ErrorRates {
		row := Row{X: rate, Values: map[string]float64{}}
		for si := range schemes {
			row.Values[fig.Series[si]] = results[ri*len(schemes)+si].AvgLatency
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig6And7 sweeps the link error rate under the HBH scheme for the three
// traffic patterns (NR, BC, TN) and returns both figures the paper
// measures from the same runs: Fig. 6 (latency, near-constant up to 10%)
// and Fig. 7 (energy per message).
func Fig6And7(scale Scale) (fig6, fig7 Figure) {
	names := []string{"NR", "BC", "TN"}
	fig6 = Figure{
		ID:     "Fig6",
		Title:  "Latency overhead of the HBH retransmission scheme (inj 0.25)",
		XLabel: "error_rate",
		YLabel: "latency (cycles)",
		Series: names,
	}
	fig7 = Figure{
		ID:     "Fig7",
		Title:  "Energy overhead of the HBH retransmission scheme (inj 0.25)",
		XLabel: "error_rate",
		YLabel: "energy (nJ/message)",
		Series: names,
	}
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.BitComplement, traffic.Tornado}
	var cfgs []network.Config
	for _, rate := range ErrorRates {
		for _, p := range patterns {
			cfg := baseConfig(scale)
			cfg.Pattern = p
			cfg.Faults.Link = rate
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(cfgs)
	for ri, rate := range ErrorRates {
		r6 := Row{X: rate, Values: map[string]float64{}}
		r7 := Row{X: rate, Values: map[string]float64{}}
		for pi, name := range names {
			res := results[ri*len(patterns)+pi]
			r6.Values[name] = res.AvgLatency
			r7.Values[name] = power.EnergyPerMessage(res.Events, res.MeasuredMessages)
		}
		fig6.Rows = append(fig6.Rows, r6)
		fig7.Rows = append(fig7.Rows, r7)
	}
	return fig6, fig7
}

// Fig8And9 sweeps the injection rate for adaptive (AD) and deterministic
// (DT) routing and returns both buffer-utilization figures, which the
// paper measures from the same runs: Fig. 8 (transmission buffers) and
// Fig. 9 (retransmission buffers).
func Fig8And9(scale Scale) (fig8, fig9 Figure) {
	fig8 = Figure{
		ID:     "Fig8",
		Title:  "Transmission buffer utilization vs injection rate",
		XLabel: "inj_rate",
		YLabel: "utilization",
		Series: []string{"AD", "DT"},
	}
	fig9 = Figure{
		ID:     "Fig9",
		Title:  "Retransmission buffer utilization vs injection rate",
		XLabel: "inj_rate",
		YLabel: "utilization",
		Series: []string{"AD", "DT"},
	}
	names := []string{"AD", "DT"}
	algos := []routing.Algorithm{routing.MinimalAdaptive, routing.XY}
	var cfgs []network.Config
	for _, inj := range InjectionRates {
		for _, alg := range algos {
			cfg := baseConfig(scale)
			cfg.Routing = alg
			cfg.InjectionRate = inj
			// Beyond saturation the network cannot eject TotalMessages in
			// bounded time at the offered rate; measure a fixed horizon.
			cfg.StallCycles = cfg.MaxCycles // utilization runs never "stall"
			switch scale {
			case Full:
				cfg.MaxCycles = 300_000
			case Tiny:
				cfg.MaxCycles = 10_000
			default:
				cfg.MaxCycles = 30_000
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(cfgs)
	for ri, inj := range InjectionRates {
		r8 := Row{X: inj, Values: map[string]float64{}}
		r9 := Row{X: inj, Values: map[string]float64{}}
		for ai, name := range names {
			res := results[ri*len(algos)+ai]
			r8.Values[name] = res.TxBufUtil
			r9.Values[name] = res.RtBufUtil
		}
		fig8.Rows = append(fig8.Rows, r8)
		fig9.Rows = append(fig9.Rows, r9)
	}
	return fig8, fig9
}

// Fig13 injects each fault class in isolation, as the paper does — link
// errors (LINK-HBH), routing-unit logic errors (RT-Logic) and
// switch-allocator logic errors (SA-Logic) — across error rates, and
// returns both figures measured from the same runs: Fig. 13a (errors
// corrected by each protection mechanism) and Fig. 13b (energy per
// packet).
func Fig13(scale Scale) (fig13a, fig13b Figure) {
	names := []string{"LINK-HBH", "RT-Logic", "SA-Logic"}
	fig13a = Figure{
		ID:     "Fig13a",
		Title:  "Number of corrected errors (inj 0.25)",
		XLabel: "error_rate",
		YLabel: "# errors corrected",
		Series: names,
	}
	fig13b = Figure{
		ID:     "Fig13b",
		Title:  "Energy per packet under soft-error correction (inj 0.25)",
		XLabel: "error_rate",
		YLabel: "energy (nJ/message)",
		Series: names,
	}
	classes := []fault.Class{fault.LinkError, fault.RTLogic, fault.SALogic}
	var cfgs []network.Config
	for _, rate := range LogicErrorRates {
		for _, cl := range classes {
			cfg := baseConfig(scale)
			switch cl {
			case fault.LinkError:
				cfg.Faults.Link = rate
			case fault.RTLogic:
				cfg.Faults.RT = rate
			case fault.SALogic:
				cfg.Faults.SA = rate
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results := runAll(cfgs)
	for ri, rate := range LogicErrorRates {
		ra := Row{X: rate, Values: map[string]float64{}}
		rb := Row{X: rate, Values: map[string]float64{}}
		for ci, name := range names {
			res := results[ri*len(classes)+ci]
			ra.Values[name] = float64(res.Counters.Corrected[classes[ci]])
			rb.Values[name] = power.EnergyPerMessage(res.Events, res.MeasuredMessages)
		}
		fig13a.Rows = append(fig13a.Rows, ra)
		fig13b.Rows = append(fig13b.Rows, rb)
	}
	return fig13a, fig13b
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

// FprintTable1 renders Table 1.
func FprintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1 — Power and Area Overhead of the AC Unit")
	fmt.Fprintf(w, "%-44s %12s %14s\n", "Component", "Power", "Area")
	for _, r := range rows {
		if r.PowerPct == 0 {
			fmt.Fprintf(w, "%-44s %9.2f mW %11.6f mm2\n", r.Component, r.PowerMW, r.AreaMM2)
			continue
		}
		fmt.Fprintf(w, "%-44s %9.2f mW %11.6f mm2  (+%.2f%% power, +%.2f%% area)\n",
			r.Component, r.PowerMW, r.AreaMM2, r.PowerPct, r.AreaPct)
	}
}
