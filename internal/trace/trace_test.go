package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// collector is a Sink that records everything it sees.
type collector struct{ events []Event }

func (c *collector) Emit(e Event) { c.events = append(c.events, e) }

func TestKindStringsStable(t *testing.T) {
	// The kebab-case names are part of the NDJSON format: lock them.
	want := map[Kind]string{
		FlitInjected:    "flit-injected",
		FlitBuffered:    "flit-buffered",
		FlitDequeued:    "flit-dequeued",
		FlitParked:      "flit-parked",
		FlitRecalled:    "flit-recalled",
		FlitEjected:     "flit-ejected",
		FlitDropped:     "flit-dropped",
		RouteComputed:   "route-computed",
		VCAllocated:     "vc-allocated",
		ACMismatch:      "ac-mismatch",
		NACKSent:        "nack-sent",
		Retransmit:      "retransmit",
		ECCCorrected:    "ecc-corrected",
		ProbeSent:       "probe-sent",
		RecoveryBegin:   "recovery-begin",
		RecoveryEnd:     "recovery-end",
		FaultInjected:   "fault-injected",
		FaultCorrected:  "fault-corrected",
		FaultUndetected: "fault-undetected",

		CampaignBegin:      "campaign-begin",
		CampaignEnd:        "campaign-end",
		CampaignPointBegin: "campaign-point-begin",
		CampaignPointEnd:   "campaign-point-end",
		CampaignRepBegin:   "campaign-rep-begin",
		CampaignRepEnd:     "campaign-rep-end",

		LinkDied:   "link-died",
		RouterDied: "router-died",
	}
	for k := Kind(1); k < numKinds; k++ {
		if w, ok := want[k]; !ok || k.String() != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), w)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "kind(") {
		t.Errorf("unknown kind should render as kind(N), got %q", Kind(200).String())
	}
}

func TestBusEnabledAndFanOut(t *testing.T) {
	var nilBus *Bus
	if nilBus.Enabled() {
		t.Fatal("nil bus must be disabled")
	}
	b := NewBus()
	if b.Enabled() {
		t.Fatal("empty bus must be disabled")
	}
	var c1, c2 collector
	b.Attach(&c1)
	b.Attach(nil) // nil sinks are dropped
	b.Attach(&c2)
	if !b.Enabled() {
		t.Fatal("bus with sinks must be enabled")
	}
	b.Emit(Event{Cycle: 3, Kind: Retransmit, Node: 7})
	if len(c1.events) != 1 || len(c2.events) != 1 {
		t.Fatalf("fan-out failed: %d / %d", len(c1.events), len(c2.events))
	}
	if c1.events[0].Node != 7 || c1.events[0].Kind != Retransmit {
		t.Fatalf("event mangled: %+v", c1.events[0])
	}
}

// The whole observability design rests on this: with no sink attached,
// the guard-then-emit pattern must not allocate.
func TestDisabledBusZeroAlloc(t *testing.T) {
	var nilBus *Bus
	empty := NewBus()
	allocs := testing.AllocsPerRun(1000, func() {
		if nilBus.Enabled() {
			nilBus.Emit(Event{Cycle: 1, Kind: FlitBuffered})
		}
		if empty.Enabled() {
			empty.Emit(Event{Cycle: 1, Kind: FlitBuffered})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled bus allocated %.1f times per emission attempt", allocs)
	}
}

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of nothing must be nil")
	}
	var c collector
	if Tee(&c) != Sink(&c) {
		t.Fatal("Tee of one sink must return it unwrapped")
	}
	var c2 collector
	s := Tee(&c, nil, &c2)
	s.Emit(Event{Kind: NACKSent})
	if len(c.events) != 1 || len(c2.events) != 1 {
		t.Fatal("Tee did not fan out")
	}
}

func TestFilterPIDs(t *testing.T) {
	var c collector
	s := FilterPIDs(&c, []uint64{5, 9})
	s.Emit(Event{Kind: FlitBuffered, PID: 5})
	s.Emit(Event{Kind: FlitBuffered, PID: 6})
	s.Emit(Event{Kind: RecoveryBegin, PID: 0}) // unattributed: dropped
	s.Emit(Event{Kind: FlitEjected, PID: 9})
	if len(c.events) != 2 || c.events[0].PID != 5 || c.events[1].PID != 9 {
		t.Fatalf("pid filter wrong: %+v", c.events)
	}
}

func TestFilterKinds(t *testing.T) {
	var c collector
	s := FilterKinds(&c, Retransmit, ECCCorrected)
	s.Emit(Event{Kind: FlitBuffered})
	s.Emit(Event{Kind: Retransmit})
	s.Emit(Event{Kind: ECCCorrected})
	s.Emit(Event{Kind: NACKSent})
	if len(c.events) != 2 || c.events[0].Kind != Retransmit || c.events[1].Kind != ECCCorrected {
		t.Fatalf("kind filter wrong: %+v", c.events)
	}
}

func TestNDJSONFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	s.Emit(Event{Cycle: 42, Kind: Retransmit, Node: 3, Port: 2, VC: 1, Seq: 9, PID: 1234, Aux: 7})
	s.Emit(Event{Cycle: 43, Kind: RecoveryBegin, Node: -1, Port: -1, VC: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), buf.String())
	}
	want := `{"cycle":42,"kind":"retransmit","node":3,"port":2,"vc":1,"pid":1234,"seq":9,"aux":7}`
	if lines[0] != want {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want)
	}
	// Every line must be valid JSON with the fixed field set.
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("invalid JSON %q: %v", l, err)
		}
		for _, k := range []string{"cycle", "kind", "node", "port", "vc", "pid", "seq", "aux"} {
			if _, ok := m[k]; !ok {
				t.Fatalf("line %q missing field %q", l, k)
			}
		}
	}
}

func TestNDJSONAux2OnlyWhenSet(t *testing.T) {
	var buf bytes.Buffer
	s := NewNDJSON(&buf)
	s.Emit(Event{Cycle: 1, Kind: Retransmit, Node: 3, Port: 2, VC: 1})
	s.Emit(Event{Cycle: 2, Kind: CampaignRepBegin, Node: 0, Port: -1, VC: -1, Aux: 4, Aux2: 99})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if strings.Contains(lines[0], "aux2") {
		t.Errorf("aux2-free event must not serialise the field: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"aux2":99`) {
		t.Errorf("aux2 missing: %s", lines[1])
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeTrace(&buf)
	c.ProcessName = func(node int) string { return "R" }
	c.ThreadName = func(port int) string { return "P" }
	c.Emit(Event{Cycle: 1, Kind: FlitBuffered, Node: 0, Port: 1, VC: 0, PID: 5})
	c.Emit(Event{Cycle: 2, Kind: RecoveryBegin, Node: 0, Port: -1, VC: -1})
	c.Emit(Event{Cycle: 9, Kind: RecoveryEnd, Node: 0, Port: -1, VC: -1})
	c.Emit(Event{Cycle: 10, Kind: Retransmit, Node: 4, Port: 3, VC: 2, PID: 8, Seq: 1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
			TS   uint64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]string{}
	meta := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			meta++
			continue
		}
		phases[e.Name] = e.Ph
	}
	if meta == 0 {
		t.Fatal("no metadata (process/thread name) events emitted")
	}
	if phases["recovery-begin"] != "B" || phases["recovery-end"] != "E" {
		t.Fatalf("recovery episode must be a B/E span, got %v", phases)
	}
	if phases["retransmit"] != "i" || phases["flit-buffered"] != "i" {
		t.Fatalf("point events must be instants, got %v", phases)
	}
}

func TestChromeCampaignTimelineLanes(t *testing.T) {
	var buf bytes.Buffer
	c := NewChromeTrace(&buf)
	c.Emit(Event{Cycle: 0, Kind: CampaignBegin, Node: -1, Aux: 2, Aux2: 2})
	c.Emit(Event{Cycle: 1, Kind: CampaignPointBegin, Node: -1, Aux: 0})
	c.Emit(Event{Cycle: 1, Kind: CampaignRepBegin, Node: 0, Aux: 0, PID: 0, Aux2: 77})
	c.Emit(Event{Cycle: 9, Kind: CampaignRepEnd, Node: 0, PID: 0, Aux: 0, Aux2: 515, Seq: RepStatusOK})
	c.Emit(Event{Cycle: 9, Kind: CampaignPointEnd, Node: -1, Aux: 0, Aux2: 0})
	c.Emit(Event{Cycle: 10, Kind: CampaignEnd, Node: -1, Aux: 2})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int64          `json:"pid"`
			TID  int64          `json:"tid"`
			TS   uint64         `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	// Each lane must open and close on the same (pid, tid), and the
	// replicate end must carry its point, cycles and status.
	type lane struct{ pid, tid int64 }
	open := map[lane]int{}
	var sawRepStats bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "B":
			open[lane{e.PID, e.TID}]++
		case "E":
			open[lane{e.PID, e.TID}]--
			if e.PID == WorkerLanePID {
				if e.Args["point"] != float64(0) || e.Args["cycles"] != float64(515) || e.Args["status"] != "ok" {
					t.Errorf("rep-end args wrong: %v", e.Args)
				}
				sawRepStats = true
			}
		}
	}
	for l, n := range open {
		if n != 0 {
			t.Errorf("lane %+v has %d unmatched span boundaries", l, n)
		}
	}
	if !sawRepStats {
		t.Error("no replicate end span on the worker lane")
	}
	if len(open) != 3 {
		t.Errorf("want spans on 3 lanes (campaign, point, worker), got %d", len(open))
	}
}

func TestMetricsSampling(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics(&buf, 10)
	if m.Interval() != 10 {
		t.Fatalf("interval = %d", m.Interval())
	}
	v := 0.0
	m.Register(3, "gauge", func() float64 { v += 0.5; return v })
	for cycle := uint64(1); cycle <= 25; cycle++ {
		m.Tick(cycle)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 { // cycles 10 and 20
		t.Fatalf("want 2 samples, got %d: %q", len(lines), buf.String())
	}
	want := `{"cycle":10,"node":3,"metric":"gauge","value":0.5}`
	if lines[0] != want {
		t.Fatalf("got %s\nwant %s", lines[0], want)
	}
	var row struct {
		Cycle  uint64  `json:"cycle"`
		Node   int     `json:"node"`
		Metric string  `json:"metric"`
		Value  float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Cycle != 20 || row.Value != 1.0 {
		t.Fatalf("second sample wrong: %+v", row)
	}
}

func TestMetricsZeroIntervalDefaultsToOne(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics(&buf, 0)
	if m.Interval() != 1 {
		t.Fatalf("interval = %d, want 1", m.Interval())
	}
}
