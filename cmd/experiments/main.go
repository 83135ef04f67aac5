// Command experiments regenerates the paper's tables and figures. Each
// figure's grid of simulations runs in parallel on the campaign engine
// (default GOMAXPROCS workers).
//
//	experiments              # every figure at quick scale
//	experiments -fig 5       # just Fig. 5
//	experiments -table 1     # just Table 1
//	experiments -full        # the paper's 300k-message runs (slow)
//	experiments -workers 2   # bound the worker pool
package main

import (
	"flag"
	"fmt"
	"os"

	"ftnoc/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 5, 6, 7, 8, 9, 13a, 13b (default: all)")
	table := flag.String("table", "", "table to regenerate: 1")
	full := flag.Bool("full", false, "run at the paper's 300k-message scale")
	formatName := flag.String("format", "text", "output format: text, csv, markdown")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	flag.Parse()

	experiments.Workers = *workers

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	format, err := experiments.ParseFormat(*formatName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *table == "1" {
		experiments.FprintTable1(os.Stdout, experiments.Table1())
		return
	}
	if *table != "" {
		fmt.Fprintf(os.Stderr, "experiments: unknown table %q\n", *table)
		os.Exit(1)
	}

	render := func(f experiments.Figure) {
		f.Render(os.Stdout, format)
		fmt.Println()
	}
	if *fig != "" {
		switch *fig {
		case "5":
			render(experiments.Fig5(scale))
		case "6", "7":
			f6, f7 := experiments.Fig6And7(scale)
			render(map[string]experiments.Figure{"6": f6, "7": f7}[*fig])
		case "8", "9":
			f8, f9 := experiments.Fig8And9(scale)
			render(map[string]experiments.Figure{"8": f8, "9": f9}[*fig])
		case "13a", "13b":
			f13a, f13b := experiments.Fig13(scale)
			render(map[string]experiments.Figure{"13a": f13a, "13b": f13b}[*fig])
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *fig)
			os.Exit(1)
		}
		return
	}

	// Every figure, each grid simulated once.
	render(experiments.Fig5(scale))
	f6, f7 := experiments.Fig6And7(scale)
	render(f6)
	render(f7)
	f13a, f13b := experiments.Fig13(scale)
	render(f13a)
	render(f13b)
	f8, f9 := experiments.Fig8And9(scale)
	render(f8)
	render(f9)
	experiments.FprintTable1(os.Stdout, experiments.Table1())
}
