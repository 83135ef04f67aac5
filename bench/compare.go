package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compare prints, per workload and end-to-end metric, both values, how
// much worse B is than A, the metric's bound and a verdict, and reports
// whether B regressed. A metric whose own round-to-round spread in
// either set exceeds its bound cannot be resolved at that bound: it is
// "unresolved", neither ok nor regressed. More failed ops is always a
// regression.
func compare(w io.Writer, a, b *suiteResult) (regressed bool) {
	fmt.Fprintf(w, "A: %s\nB: %s\n\n", a.Stamp, b.Stamp)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, okA := ra.EndToEnd[m.Name]
			vb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB || va.Value == 0 {
				continue
			}
			worse := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case max(va.Spread, vb.Spread) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			}
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
		verdict := "ok"
		if rb.FailedShare > ra.FailedShare {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %9s %7s  %s\n",
			wl.Name, "failed_share", ra.FailedShare, rb.FailedShare, "", "any", verdict)
	}
	return regressed
}
