package main

import (
	"reflect"
	"testing"
	"time"

	"ftnoc/internal/campaign"
)

func TestRateList(t *testing.T) {
	for _, tc := range []struct {
		name           string
		from, to, step float64
		want           []float64 // nil: rejected
	}{
		{"default axis", 0.05, 0.5, 0.05, []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}},
		{"single point", 0.2, 0.2, 0.1, []float64{0.2}},
		{"step past to", 0.1, 0.25, 0.1, []float64{0.1, 0.2}},
		{"zero step", 0.1, 0.5, 0, nil},
		{"negative step", 0.1, 0.5, -0.05, nil},
		{"to below from", 0.5, 0.1, 0.05, nil},
	} {
		got, err := rateList(tc.from, tc.to, tc.step)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%s: accepted, rates %v", tc.name, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rateList = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// The kernel line counts the steps the replicates ticked as two shards,
// and leaves shards out when none did.
func TestKernelSummary(t *testing.T) {
	rep := campaign.RepResult{Seed: 1, KernelTicked: 60, KernelSkipped: 40, KernelSharded: 7}
	rep.Results.Cycles = 10
	r := &campaign.Report{Points: []campaign.PointResult{{Reps: []campaign.RepResult{rep}}}, Elapsed: time.Second}
	if got, want := kernelSummary(r), "10 cycles/sec aggregate, 40.0% actor ticks skipped, 7 steps as two shards"; got != want {
		t.Errorf("kernelSummary = %q, want %q", got, want)
	}
	r.Points[0].Reps[0].KernelSharded = 0
	if got, want := kernelSummary(r), "10 cycles/sec aggregate, 40.0% actor ticks skipped"; got != want {
		t.Errorf("kernelSummary = %q, want %q", got, want)
	}
}
