package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"ftnoc/internal/trace"
)

// timelineSink records span events, tolerating the engine's concurrent
// workers (campaign.Run serialises emissions through its locked sink,
// but the test keeps its own lock to stay honest under -race).
type timelineSink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (s *timelineSink) Emit(e trace.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// TestSpanTimeline checks the hierarchical span stream: exactly one
// campaign span, one point span per grid point, one replicate span per
// dispatched replicate, every Begin matched by an End, and replicate
// ends carrying their point, simulated cycles and status.
func TestSpanTimeline(t *testing.T) {
	var sink timelineSink
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 0.2},
		Seeds:          2,
		Workers:        2,
		Progress:       &sink,
	}
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	count := map[trace.Kind]int{}
	for _, e := range sink.events {
		count[e.Kind]++
		// Wall timestamps are per-event non-decreasing only within a
		// lane; globally they must at least stay sane (≤ elapsed).
		if e.Cycle > uint64(report.Elapsed.Microseconds())+1000 {
			t.Errorf("%v wall timestamp %dµs exceeds campaign elapsed %v", e.Kind, e.Cycle, report.Elapsed)
		}
		if e.Kind == trace.CampaignRepEnd {
			if e.Seq != trace.RepStatusOK {
				t.Errorf("replicate status = %d, want ok", e.Seq)
			}
			if want := report.Points[e.Aux].Reps[e.PID].Results.Cycles; e.Aux2 != want || want == 0 {
				t.Errorf("point %d rep %d end carries %d cycles, want %d", e.Aux, e.PID, e.Aux2, want)
			}
		}
	}
	if count[trace.CampaignBegin] != 1 || count[trace.CampaignEnd] != 1 {
		t.Fatalf("campaign span: %d begins, %d ends", count[trace.CampaignBegin], count[trace.CampaignEnd])
	}
	if count[trace.CampaignPointBegin] != 2 || count[trace.CampaignPointEnd] != 2 {
		t.Fatalf("point spans: %d begins, %d ends, want 2/2", count[trace.CampaignPointBegin], count[trace.CampaignPointEnd])
	}
	if count[trace.CampaignRepBegin] != 4 || count[trace.CampaignRepEnd] != 4 {
		t.Fatalf("replicate spans: %d begins, %d ends, want 4/4", count[trace.CampaignRepBegin], count[trace.CampaignRepEnd])
	}
	if len(sink.events) != 1+1+2+2+4+4 {
		t.Fatalf("%d events, want only the 14 span boundaries", len(sink.events))
	}

	// First and last span events frame the run.
	if sink.events[0].Kind != trace.CampaignBegin {
		t.Errorf("first event = %v, want campaign-begin", sink.events[0].Kind)
	}
	if last := sink.events[len(sink.events)-1].Kind; last != trace.CampaignEnd {
		t.Errorf("last event = %v, want campaign-end", last)
	}
}

// TestChromeTimelineOfRun renders a real campaign through the Chrome
// exporter: every event sits on one of the three campaign lanes (no
// "router -1" process), and each replicate's E event carries the point
// and simulated cycles of its RepResult.
func TestChromeTimelineOfRun(t *testing.T) {
	var buf bytes.Buffer
	chrome := trace.NewChromeTrace(&buf)
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 0.2},
		Seeds:          2,
		Workers:        2,
		Progress:       chrome,
	}
	report, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := chrome.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			PID  int64  `json:"pid"`
			Args struct {
				Point  *int   `json:"point"`
				Rep    int    `json:"rep"`
				Cycles uint64 `json:"cycles"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	ends := 0
	for _, e := range doc.TraceEvents {
		if e.PID < trace.CampaignLanePID || e.PID > trace.WorkerLanePID {
			t.Errorf("%s event on pid %d, outside the campaign lanes", e.Ph, e.PID)
		}
		if e.Ph != "E" || e.PID != trace.WorkerLanePID {
			continue
		}
		ends++
		if e.Args.Point == nil {
			t.Fatal("replicate E event has no point")
		}
		if want := report.Points[*e.Args.Point].Reps[e.Args.Rep].Results.Cycles; e.Args.Cycles != want || want == 0 {
			t.Errorf("point %d rep %d: E event carries %d cycles, want %d", *e.Args.Point, e.Args.Rep, e.Args.Cycles, want)
		}
	}
	if ends != 4 {
		t.Fatalf("%d replicate E events, want 4", ends)
	}
}

// TestSpanTimelineAbort: an aborted campaign still closes every opened
// span, so a Chrome trace of a cancelled run is well-formed.
func TestSpanTimelineAbort(t *testing.T) {
	var sink timelineSink
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // abort before dispatch: no replicate may start
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{0.1, 0.2},
		Workers:        1,
		Progress:       &sink,
	}
	report, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Aborted {
		t.Fatal("report not marked aborted")
	}
	begins, ends := 0, 0
	for _, e := range sink.events {
		switch e.Kind {
		case trace.CampaignPointBegin, trace.CampaignRepBegin:
			begins++
		case trace.CampaignPointEnd, trace.CampaignRepEnd:
			ends++
		case trace.CampaignEnd:
			if e.Aux2 != 1 {
				t.Error("campaign-end should carry the aborted flag")
			}
		}
	}
	if begins != ends {
		t.Fatalf("unbalanced spans after abort: %d begins, %d ends", begins, ends)
	}
}

// TestReplicateFailureLogging: a failed replicate logs its grid
// coordinates and derived seed; successful replicates and nil loggers
// log nothing, and point-validation failures (no replicate ran) stay
// silent too.
func TestReplicateFailureLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))

	points := (Spec{Base: tinyBase(), InjectionRates: []float64{0.1, 0.35}}).Points()
	rr := RepResult{Seed: 12345, Err: context.DeadlineExceeded}
	logRepFailure(logger, points[1], 3, rr)
	got := buf.String()
	for _, want := range []string{
		"replicate failed", "point=1", "rep=3", "seed=12345",
		"size=4x4", "injection_rate=0.35", "err=", "routing=", "pattern=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("failure record missing %q: %s", want, got)
		}
	}

	buf.Reset()
	logRepFailure(logger, points[0], 0, RepResult{Seed: 1}) // no error: silent
	logRepFailure(nil, points[0], 0, rr)                    // nil logger: no panic
	if buf.Len() != 0 {
		t.Fatalf("successful replicate logged: %s", buf.String())
	}

	// End to end: a campaign whose points all fail validation dispatches
	// no replicates, so nothing reaches the failure log.
	buf.Reset()
	spec := Spec{
		Base:           tinyBase(),
		InjectionRates: []float64{2.0},
		Workers:        1,
		Logger:         logger,
	}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("point-validation failures must not log as replicate failures: %s", buf.String())
	}
}
