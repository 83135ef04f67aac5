package campaign

import (
	"context"
	"encoding/csv"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// runExportReport produces a report with replicated good points and one
// invalid point, exercising every row shape the tables can contain.
func runExportReport(t *testing.T) *Report {
	t.Helper()
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 1.5, 0.2}, // middle point invalid
		Seeds:          2,
		Workers:        2,
	}
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return report
}

// TestNDJSONRoundTrip guards the serialization nocd returns to clients:
// a written NDJSON table, read back, must reconstruct every point row
// exactly — coordinates, aggregates and per-replicate detail.
func TestNDJSONRoundTrip(t *testing.T) {
	report := runExportReport(t)

	var out strings.Builder
	if err := report.WriteNDJSON(&out); err != nil {
		t.Fatal(err)
	}
	rows, err := ReadNDJSON(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(report.Points) {
		t.Fatalf("read %d rows, want %d", len(rows), len(report.Points))
	}
	for i := range rows {
		want := PointRowOf(&report.Points[i])
		if !reflect.DeepEqual(rows[i], want) {
			t.Fatalf("row %d does not reconstruct the point:\n got %+v\nwant %+v", i, rows[i], want)
		}
	}
	// The good points must carry real replicate detail, or the equality
	// above proves nothing.
	if len(rows[0].Replicates) != 2 || rows[0].Replicates[0].Delivered == 0 {
		t.Fatalf("point 0 replicates missing: %+v", rows[0].Replicates)
	}
	if rows[1].Error == "" {
		t.Fatal("invalid point lost its error")
	}
}

// TestCSVRoundTrip is the CSV counterpart: every cell, parsed with
// encoding/csv, holds the exact value of its point's row (floats use
// shortest-exact formatting). CSV carries no replicate detail.
func TestCSVRoundTrip(t *testing.T) {
	report := runExportReport(t)

	var out strings.Builder
	if err := report.WriteCSV(&out); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(records[0], csvHeader) {
		t.Fatalf("header %q, want %q", records[0], csvHeader)
	}
	if len(records)-1 != len(report.Points) {
		t.Fatalf("read %d rows, want %d", len(records)-1, len(report.Points))
	}
	for i, rec := range records[1:] {
		p := PointRowOf(&report.Points[i])
		nums := map[string]float64{
			"point": float64(p.Point), "width": float64(p.Width), "height": float64(p.Height),
			"link_error_rate": p.LinkErrorRate, "injection_rate": p.InjectionRate,
			"reps": float64(p.Reps), "completed": float64(p.Completed),
			"stalled": float64(p.Stalled), "aborted": float64(p.Aborted),
			"delivered_mean": p.Delivered.Mean, "undeliverable_mean": p.Undeliverable.Mean, "reachable_frac_mean": p.ReachableFrac.Mean,
			"avg_latency_mean": p.AvgLatency.Mean, "avg_latency_ci95": p.AvgLatency.CI95,
			"p95_latency_mean": p.P95Latency.Mean, "p95_latency_ci95": p.P95Latency.CI95,
			"throughput_mean": p.Throughput.Mean, "throughput_ci95": p.Throughput.CI95,
			"energy_nj_mean": p.EnergyPerMsgNJ.Mean, "energy_nj_ci95": p.EnergyPerMsgNJ.CI95,
		}
		strs := map[string]string{
			"topology": p.Topology, "routing": p.Routing, "protection": p.Protection,
			"pattern": p.Pattern, "mortality": p.Mortality, "error": p.Error,
		}
		if len(nums)+len(strs) != len(csvHeader) {
			t.Fatalf("test checks %d columns, table has %d", len(nums)+len(strs), len(csvHeader))
		}
		for c, name := range csvHeader {
			if want, ok := strs[name]; ok {
				if rec[c] != want {
					t.Errorf("row %d %s = %q, want %q", i, name, rec[c], want)
				}
				continue
			}
			got, err := strconv.ParseFloat(rec[c], 64)
			if want := nums[name]; err != nil || got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("row %d %s = %q, want %v", i, name, rec[c], want)
			}
		}
	}
	if records[1][slices.Index(csvHeader, "completed")] != "2" || records[2][len(csvHeader)-1] == "" {
		t.Fatalf("good point's aggregates or bad point's error missing: %q", records[1:])
	}
}
