package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the bench's own
// files around the public function it names. Spans of one op share Op.
type span struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	Op      int     `json:"op"`
	StartUs float64 `json:"ts"` // µs since the round's recorder started
	DurUs   float64 `json:"dur"`
}

// recorder keeps a traced round's spans and layer counts in memory; the
// parent writes them out when the benchmark ends. A nil *recorder is the
// untraced case: begin still times the call, nothing is kept.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex // the service workload records from server goroutines too
	op     int
	spans  []span
	counts map[string]float64 // sums over the traced ops
	repsMs []float64          // campaign replicate walls, for rep_ms_p50/p90
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: make(map[string]float64)}
}

// openSpan is a started span; end closes it and returns its duration in
// milliseconds whether or not a recorder is listening.
type openSpan struct {
	rec          *recorder
	name, parent string
	start        time.Time
}

func (rec *recorder) begin(name, parent string) openSpan {
	return openSpan{rec: rec, name: name, parent: parent, start: time.Now()}
}

func (s openSpan) end() float64 {
	ms := sinceMs(s.start)
	s.rec.spanAt(s.name, s.parent, s.start, ms)
	return ms
}

// spanAt records a span whose timing was taken elsewhere (the campaign
// engine's replicate timeline, a server-side wrapper).
func (rec *recorder) spanAt(name, parent string, start time.Time, durMs float64) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.spans = append(rec.spans, span{
		Name: name, Parent: parent, Op: rec.op,
		StartUs: float64(start.Sub(rec.t0).Nanoseconds()) / 1e3, DurUs: durMs * 1e3,
	})
	rec.mu.Unlock()
}

// add accumulates a layer count (or a per-op measurement to be averaged)
// under its per-layer metric name.
func (rec *recorder) add(name string, v float64) {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.counts[name] += v
	rec.mu.Unlock()
}

// nextOp advances the op id the following spans are filed under.
func (rec *recorder) nextOp() {
	if rec == nil {
		return
	}
	rec.mu.Lock()
	rec.op++
	rec.mu.Unlock()
}

// traceFile is out/trace-<workload>.json: the Chrome trace-event
// view of the spans (load it in chrome://tracing or Perfetto) with the
// stamp, the per-layer metrics and the raw profile buckets alongside.
type traceFile struct {
	Stamp       stamp              `json:"stamp"`
	Workload    string             `json:"workload"`
	Metrics     map[string]value   `json:"metrics"`
	Profile     map[string]float64 `json:"profile_samples_by_layer"`
	Unmatched   map[string]float64 `json:"profile_unattributed_by_package,omitempty"`
	TraceEvents []chromeEvent      `json:"traceEvents"`
}

type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"` // round
	Tid  int               `json:"tid"` // op
	Args map[string]string `json:"args,omitempty"`
}

func writeTraceFile(dir string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), b, 0o644)
}
