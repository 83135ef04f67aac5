// Package obs is the service-layer metrics library: a stdlib-only
// registry of counters, gauges and fixed-bucket histograms with a
// Prometheus text-format (v0.0.4) encoder, built for long-running
// daemons (cmd/nocd) rather than for the simulation hot path — the
// simulator's own observability stays in package trace.
//
// Design constraints:
//
//   - No dependencies. The repo takes no third-party modules; the
//     encoder implements exactly the slice of the exposition format a
//     Prometheus (or compatible) scraper needs: HELP/TYPE headers,
//     label escaping, histogram _bucket/_sum/_count expansion.
//   - Cheap when unscraped. Series updates are single atomics (a CAS
//     loop for float adds); no update allocates after the series has
//     been interned, so instrumented code paths cost nanoseconds
//     whether or not anything ever scrapes /metrics. Func-backed
//     families are read only at encode time.
//   - Deterministic output. Families encode sorted by name and series
//     sorted by label values, so two scrapes of identical state are
//     byte-identical — scrape output is testable with string equality.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// kind is a family's Prometheus metric type.
type kind uint8

const (
	counterKind kind = iota + 1
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// family is one named metric with its labelled series.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string

	mu     sync.Mutex
	series map[string]*series // key: joined label values
	// fn, when non-nil, makes this a single-series family whose value is
	// read at encode time (queue depth, goroutine count, ...).
	fn func() float64

	buckets []float64 // histogram upper bounds, ascending, no +Inf
}

// series is one (label-values, value) pair. Counter and gauge values
// live in bits (counters as float64 too, so Add(0.5) is representable;
// in practice every counter here increments integrally). Histograms use
// counts/sum/total.
type series struct {
	labelVals []string

	bits atomic.Uint64 // counter/gauge: math.Float64bits of the value

	counts []atomic.Uint64 // histogram: per-bucket (non-cumulative) counts
	inf    atomic.Uint64   // histogram: observations above the last bound
	sum    atomic.Uint64   // histogram: float bits of the sum
	total  atomic.Uint64   // histogram: observation count
}

func (s *series) addFloat(v float64) {
	for {
		old := s.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Registry holds metric families and encodes them for scraping. The
// zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register interns a family, panicking on a name reused with a
// different shape — metric names are programmer-chosen constants, so a
// clash is a bug, not an input error.
func (r *Registry) register(name, help string, k kind, labels []string, buckets []float64, fn func() float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: k, labels: labels,
		series: make(map[string]*series), fn: fn, buckets: buckets,
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) an unlabelled monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, counterKind, nil, nil, nil)
	return &Counter{s: f.intern(nil)}
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, counterKind, labels, nil, nil)}
}

// CounterFunc registers a counter whose value is read from fn at encode
// time — for mirroring a monotonic total owned elsewhere (a cache's hit
// count) without double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, counterKind, nil, nil, fn)
}

// Gauge registers (or returns) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, gaugeKind, nil, nil, nil)
	return &Gauge{s: f.intern(nil)}
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, gaugeKind, labels, nil, nil)}
}

// GaugeFunc registers a gauge read from fn at encode time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, gaugeKind, nil, nil, fn)
}

// Histogram registers an unlabelled fixed-bucket histogram. Bounds must
// be ascending; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, histogramKind, nil, checkBuckets(buckets), nil)
	return &Histogram{s: f.intern(nil), buckets: f.buckets}
}

// HistogramVec registers a histogram family with the given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, histogramKind, labels, checkBuckets(buckets), nil)}
}

// checkBuckets validates a bucket ladder. +Inf is implicit, so an
// empty ladder leaves a histogram with its +Inf bucket alone.
func checkBuckets(buckets []float64) []float64 {
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	if n := len(buckets); n > 0 && math.IsInf(buckets[n-1], +1) {
		buckets = buckets[:n-1]
	}
	return buckets
}

// intern returns the series for the given label values, creating it on
// first use.
func (f *family) intern(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q used with %d label values, want %d", f.name, len(labelVals), len(f.labels)))
	}
	key := strings.Join(labelVals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelVals: append([]string(nil), labelVals...)}
	if f.kind == histogramKind {
		s.counts = make([]atomic.Uint64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing series.
type Counter struct{ s *series }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increments by v; negative deltas panic (counters are monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("obs: counter decremented")
	}
	c.s.addFloat(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the series for the given label values (interned: a
// repeated With is a map lookup, no allocation).
func (v *CounterVec) With(labelVals ...string) *Counter {
	return &Counter{s: v.f.intern(labelVals)}
}

// Gauge is a series that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add increments by v (negative to decrement).
func (g *Gauge) Add(v float64) { g.s.addFloat(v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the series for the given label values.
func (v *GaugeVec) With(labelVals ...string) *Gauge {
	return &Gauge{s: v.f.intern(labelVals)}
}

// Histogram is a fixed-bucket distribution.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	if i < len(h.buckets) {
		h.s.counts[i].Add(1)
	} else {
		h.s.inf.Add(1)
	}
	h.s.total.Add(1)
	for {
		old := h.s.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.s.total.Load() }

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the series for the given label values.
func (v *HistogramVec) With(labelVals ...string) *Histogram {
	return &Histogram{s: v.f.intern(labelVals), buckets: v.f.buckets}
}
