// Command experiments regenerates the paper's tables and figures. The
// grids of every requested figure run in one batch on the campaign
// engine (default GOMAXPROCS workers).
//
//	experiments              # every figure, then Table 1, at quick scale
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

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	format, err := experiments.ParseFormat(*formatName)
	if err != nil {
		fail(err)
	}
	if *table != "" && *table != "1" {
		fail(fmt.Errorf("unknown table %q", *table))
	}

	// With neither flag, every figure and then Table 1; with both, the
	// figure and then the table.
	if *fig != "" || *table == "" {
		var ids []string
		if *fig != "" {
			ids = []string{"Fig" + *fig}
		}
		figs, err := experiments.Run(scale, *workers, ids...)
		if err != nil {
			fail(err)
		}
		for _, f := range figs {
			f.Render(os.Stdout, format)
			fmt.Println()
		}
	}
	if *fig == "" || *table != "" {
		experiments.RenderTable1(os.Stdout, experiments.Table1(), format)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
