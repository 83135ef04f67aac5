package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Format selects a figure rendering.
type Format uint8

// Output formats.
const (
	Text Format = iota + 1
	CSV
	Markdown
)

// ParseFormat maps a CLI string to a Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "text":
		return Text, nil
	case "csv":
		return CSV, nil
	case "markdown", "md":
		return Markdown, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want text, csv or markdown)", s)
	}
}

// Render writes the figure in the chosen format: an aligned text table
// under its ID and title, CSV (suitable for gnuplot/pandas), or a
// GitHub-flavoured markdown table under a heading, the layout
// EXPERIMENTS.md uses. Each format spells the header and every row as an
// x cell followed by one cell per series.
func (f Figure) Render(w io.Writer, format Format) {
	headX, head, rowX, row := "%-12s", "%14s", "%-12.6g", "%14.4g"
	switch format {
	case CSV:
		headX, head, rowX, row = "%s", ",%s", "%g", ",%g"
	case Markdown:
		headX, head, rowX, row = "| %s |", " %s |", "| %g |", " %.4g |"
		fmt.Fprintf(w, "## %s — %s\n\n", f.ID, f.Title)
	default:
		fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	}
	fmt.Fprintf(w, headX, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, head, s)
	}
	fmt.Fprintln(w)
	if format == Markdown {
		fmt.Fprintln(w, "|---|"+strings.Repeat("---|", len(f.Series)))
	}
	for _, r := range f.Rows {
		fmt.Fprintf(w, rowX, r.X)
		for _, s := range f.Series {
			fmt.Fprintf(w, row, r.Values[s])
		}
		fmt.Fprintln(w)
	}
	if format == Markdown {
		fmt.Fprintln(w)
	}
}

// RenderTable1 writes Table 1 in the chosen format: an aligned text
// table, CSV with one column per number, or markdown in EXPERIMENTS.md's
// layout.
func RenderTable1(w io.Writer, rows []Table1Row, format Format) {
	const title = "Table 1 — Power and Area Overhead of the AC Unit"
	switch format {
	case CSV:
		cw := csv.NewWriter(w)
		cw.Write([]string{"component", "power_mw", "area_mm2", "power_pct", "area_pct"})
		for _, r := range rows {
			cw.Write([]string{r.Component, fmt.Sprint(r.PowerMW), fmt.Sprint(r.AreaMM2), fmt.Sprint(r.PowerPct), fmt.Sprint(r.AreaPct)})
		}
		cw.Flush()
	case Markdown:
		fmt.Fprintf(w, "## %s\n\n| Component | Power | Area |\n|---|---|---|\n", title)
		for _, r := range rows {
			power, area := fmt.Sprintf("%.2f mW", r.PowerMW), fmt.Sprintf("%.6f mm²", r.AreaMM2)
			if r.PowerPct != 0 {
				power += fmt.Sprintf(" (+%.2f %%)", r.PowerPct)
				area += fmt.Sprintf(" (+%.2f %%)", r.AreaPct)
			}
			fmt.Fprintf(w, "| %s | %s | %s |\n", r.Component, power, area)
		}
		fmt.Fprintln(w)
	default:
		fmt.Fprintln(w, title)
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
}
