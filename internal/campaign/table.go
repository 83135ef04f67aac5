package campaign

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the fixed column order of WriteCSV (and the field order of
// WriteNDJSON's flat fields); it is part of the output format.
var csvHeader = []string{
	"point", "width", "height", "topology", "routing", "protection", "pattern",
	"link_error_rate", "mortality", "injection_rate", "reps", "completed", "stalled", "aborted",
	"delivered_mean", "undeliverable_mean", "reachable_frac_mean",
	"avg_latency_mean", "avg_latency_ci95",
	"p95_latency_mean", "p95_latency_ci95",
	"throughput_mean", "throughput_ci95",
	"energy_nj_mean", "energy_nj_ci95",
	"error",
}

// WriteCSV renders the report as one CSV row per point, in grid order,
// with mean and 95%-CI half-width columns for each replicated metric.
func (r *Report) WriteCSV(w io.Writer) error {
	rows := r.rows()
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i := range rows {
		p := &rows[i]
		row := []string{
			strconv.Itoa(p.Point),
			strconv.Itoa(p.Width), strconv.Itoa(p.Height),
			p.Topology, p.Routing, p.Protection, p.Pattern,
			formatFloat(p.LinkErrorRate), p.Mortality, formatFloat(p.InjectionRate),
			strconv.Itoa(p.Reps),
			strconv.Itoa(p.Completed), strconv.Itoa(p.Stalled), strconv.Itoa(p.Aborted),
			formatFloat(p.Delivered.Mean),
			formatFloat(p.Undeliverable.Mean), formatFloat(p.ReachableFrac.Mean),
			formatFloat(p.AvgLatency.Mean), formatFloat(p.AvgLatency.CI95),
			formatFloat(p.P95Latency.Mean), formatFloat(p.P95Latency.CI95),
			formatFloat(p.Throughput.Mean), formatFloat(p.Throughput.CI95),
			formatFloat(p.EnergyPerMsgNJ.Mean), formatFloat(p.EnergyPerMsgNJ.CI95),
			p.Error,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// rows flattens the report's points into their external row form (or
// returns the pre-flattened Rows of a coordinator-assembled report).
func (r *Report) rows() []PointRow {
	if r.Rows != nil {
		return r.Rows
	}
	rows := make([]PointRow, len(r.Points))
	for i := range r.Points {
		rows[i] = PointRowOf(&r.Points[i])
	}
	return rows
}

// formatFloat renders a float in the shortest form that parses back to
// the identical value, so no table cell loses precision.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// PointRow is the flattened external form of a PointResult: one NDJSON
// line (with nested replicates) or one CSV row (without). It is the
// row shape nocd returns to API clients.
type PointRow struct {
	Point         int     `json:"point"`
	Width         int     `json:"width"`
	Height        int     `json:"height"`
	Topology      string  `json:"topology"`
	Routing       string  `json:"routing"`
	Protection    string  `json:"protection"`
	Pattern       string  `json:"pattern"`
	LinkErrorRate float64 `json:"link_error_rate"`
	// Mortality is the point's hard-fault schedule in ParseMortality
	// grammar ("none" when the axis is unswept).
	Mortality     string  `json:"mortality"`
	InjectionRate float64 `json:"injection_rate"`

	Reps      int    `json:"reps"`
	Completed int    `json:"completed"`
	Stalled   int    `json:"stalled"`
	Aborted   int    `json:"aborted"`
	Error     string `json:"error,omitempty"`

	AvgLatency     EstimateRow `json:"avg_latency"`
	P95Latency     EstimateRow `json:"p95_latency"`
	Throughput     EstimateRow `json:"throughput"`
	EnergyPerMsgNJ EstimateRow `json:"energy_nj"`
	Delivered      EstimateRow `json:"delivered"`
	Undeliverable  EstimateRow `json:"undeliverable"`
	ReachableFrac  EstimateRow `json:"reachable_frac"`

	Replicates []RepRow `json:"replicates,omitempty"`
}

// EstimateRow is the external form of a stats.Estimate.
type EstimateRow struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// RepRow is the external form of one replicate's measurements.
type RepRow struct {
	Seed          uint64  `json:"seed"`
	Delivered     uint64  `json:"delivered"`
	Undeliverable uint64  `json:"undeliverable,omitempty"`
	ReachableFrac float64 `json:"reachable_frac"`
	Cycles        uint64  `json:"cycles"`
	AvgLatency    float64 `json:"avg_latency"`
	P95Latency    float64 `json:"p95_latency"`
	Throughput    float64 `json:"throughput"`
	Stalled       bool    `json:"stalled,omitempty"`
	Aborted       bool    `json:"aborted,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// PointRowOf flattens a PointResult into its external row form,
// including per-replicate detail (never-dispatched replicates are
// omitted, matching the aggregates).
func PointRowOf(p *PointResult) PointRow {
	row := PointRow{
		Point: p.Index, Width: p.Size.Width, Height: p.Size.Height,
		Topology: p.Topology.String(), Routing: p.Routing.String(),
		Protection: p.Protection.String(), Pattern: p.Pattern.String(),
		LinkErrorRate: p.LinkErrorRate, Mortality: p.Mortality.String(),
		InjectionRate: p.InjectionRate,
		Reps:          len(p.Reps), Completed: p.Agg.Completed,
		Stalled: p.Agg.Stalled, Aborted: p.Agg.Aborted,
		AvgLatency:     EstimateRow(p.Agg.AvgLatency),
		P95Latency:     EstimateRow(p.Agg.P95Latency),
		Throughput:     EstimateRow(p.Agg.Throughput),
		EnergyPerMsgNJ: EstimateRow(p.Agg.EnergyPerMsgNJ),
		Delivered:      EstimateRow(p.Agg.Delivered),
		Undeliverable:  EstimateRow(p.Agg.Undeliverable),
		ReachableFrac:  EstimateRow(p.Agg.ReachableFrac),
	}
	if p.Err != nil {
		row.Error = p.Err.Error()
	}
	for _, rr := range p.Reps {
		if rr.Seed == 0 && rr.Err == nil {
			continue // never dispatched
		}
		rep := RepRow{
			Seed:          rr.Seed,
			Delivered:     rr.Results.Delivered,
			Undeliverable: rr.Results.Undeliverable,
			ReachableFrac: rr.Results.ReachablePairFraction,
			Cycles:        rr.Results.Cycles,
			AvgLatency:    rr.Results.AvgLatency,
			P95Latency:    rr.Results.P95Latency,
			Throughput:    rr.Results.Throughput.FlitsPerNodePerCycle(),
			Stalled:       rr.Results.Stalled,
			Aborted:       rr.Results.Aborted,
		}
		if rr.Err != nil {
			rep.Error = rr.Err.Error()
		}
		row.Replicates = append(row.Replicates, rep)
	}
	return row
}

// WriteNDJSON renders the report as one JSON object per line per point,
// in grid order, with per-replicate detail nested in each row.
func (r *Report) WriteNDJSON(w io.Writer) error {
	return WriteRowsNDJSON(w, r.rows())
}

// WriteRowsNDJSON renders already-flattened rows in the WriteNDJSON
// format, so rows read back from a stream (a shard cache entry, a
// worker's response) re-emit byte-identically.
func WriteRowsNDJSON(w io.Writer, rows []PointRow) error {
	enc := json.NewEncoder(w)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return fmt.Errorf("campaign: encoding point %d: %w", rows[i].Point, err)
		}
	}
	return nil
}

// maxNDJSONRow bounds one table line; a longer line means the stream is
// not one of our tables.
const maxNDJSONRow = 16 << 20

// ReadNDJSON parses a WriteNDJSON table back into its rows, in file
// order: the fabric reads workers' row streams and shard cache entries
// with it, and a report written and read back reconstructs every row.
//
// Every writer newline-terminates every row, so a final line without its
// newline is a truncated stream (a writer that died mid-row) and is
// reported as an error even when the fragment happens to parse as JSON —
// the resume path must never mistake a partial table for a complete one.
func ReadNDJSON(r io.Reader) ([]PointRow, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var rows []PointRow
	for {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("campaign: reading NDJSON: %w", err)
		}
		terminated := err == nil
		if len(line) > maxNDJSONRow {
			return nil, fmt.Errorf("campaign: NDJSON row %d exceeds %d bytes", len(rows), maxNDJSONRow)
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		if len(line) > 0 {
			if !terminated {
				return nil, fmt.Errorf("campaign: truncated NDJSON: row %d is missing its terminating newline (partial write from a dead producer?)", len(rows))
			}
			var row PointRow
			if uerr := json.Unmarshal(line, &row); uerr != nil {
				return nil, fmt.Errorf("campaign: parsing NDJSON row %d: %w", len(rows), uerr)
			}
			rows = append(rows, row)
		}
		if !terminated {
			return rows, nil
		}
	}
}
