package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestLatencyStats(t *testing.T) {
	var s LatencyStats
	if s.Mean() != 0 || s.Percentile(95) != 0 || s.Max() != 0 {
		t.Fatal("empty stats not zero")
	}
	for _, v := range []uint64{10, 20, 30, 40, 50} {
		s.Record(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 30 {
		t.Fatalf("Mean = %v, want 30", s.Mean())
	}
	if s.Max() != 50 {
		t.Fatalf("Max = %v", s.Max())
	}
	if p := s.Percentile(50); p != 30 {
		t.Fatalf("P50 = %v, want 30", p)
	}
	if p := s.Percentile(100); p != 50 {
		t.Fatalf("P100 = %v, want 50", p)
	}
	if p := s.Percentile(1); p != 10 {
		t.Fatalf("P1 = %v, want 10", p)
	}
}

// Out-of-domain percentile queries must come back NaN, never a silently
// clamped extremum a caller could mistake for a statistic.
func TestPercentileRejectsBadP(t *testing.T) {
	var s LatencyStats
	for _, v := range []uint64{10, 20, 30} {
		s.Record(v)
	}
	for _, p := range []float64{0, -1, -100, 100.001, 1e9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := s.Percentile(p); !math.IsNaN(got) {
			t.Errorf("Percentile(%v) = %v, want NaN", p, got)
		}
	}
	// The domain boundary itself stays valid.
	if got := s.Percentile(100); got != 30 {
		t.Errorf("Percentile(100) = %v, want 30", got)
	}
	if got := s.Percentile(0.001); got != 10 {
		t.Errorf("Percentile(0.001) = %v, want 10", got)
	}
	// An empty distribution with a bad p is still a domain error.
	var empty LatencyStats
	if got := empty.Percentile(-5); !math.IsNaN(got) {
		t.Errorf("empty Percentile(-5) = %v, want NaN", got)
	}
}

func TestLatencyHistogram(t *testing.T) {
	var s LatencyStats
	for _, v := range []uint64{1, 5, 11, 15, 99, 1000} {
		s.Record(v)
	}
	h := s.Histogram(10, 5)
	if h[0] != 2 || h[1] != 2 || h[4] != 2 {
		t.Fatalf("histogram = %v", h)
	}
	// A bad shape is no histogram, never a panic or a bin read through
	// int(±Inf) or int(NaN); an empty one has empty bins.
	for _, c := range []struct {
		width float64
		bins  int
	}{{10, 0}, {10, -1}, {0, 5}, {-10, 5}, {math.NaN(), 5}, {math.Inf(-1), 5}} {
		if h := s.Histogram(c.width, c.bins); h != nil {
			t.Errorf("Histogram(%v, %d) = %v, want nil", c.width, c.bins, h)
		}
	}
	var empty LatencyStats
	if h := empty.Histogram(10, 0); h != nil {
		t.Errorf("empty Histogram(10, 0) = %v, want nil", h)
	}
	if h := empty.Histogram(10, 3); len(h) != 3 || h[0]+h[1]+h[2] != 0 {
		t.Errorf("empty Histogram(10, 3) = %v, want three empty bins", h)
	}
	// A tiny width puts every sample in the open-ended last bin.
	if h := s.Histogram(1e-300, 2); h[0] != 0 || h[1] != 6 {
		t.Errorf("Histogram(1e-300, 2) = %v, want [0 6]", h)
	}
}

// sampleStats is the slice-of-samples reference LatencyStats is checked
// against: every sample kept as a float, the sum taken in recording
// order, percentiles read off a sorted copy.
type sampleStats struct {
	samples []float64
	sum     float64
}

func (r *sampleStats) Record(cycles uint64) {
	v := float64(cycles)
	r.samples = append(r.samples, v)
	r.sum += v
}

func (r *sampleStats) Mean() float64 {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / float64(len(r.samples))
}

func (r *sampleStats) Percentile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p > 100 {
		return math.NaN()
	}
	if len(r.samples) == 0 {
		return 0
	}
	sorted := slices.Clone(r.samples)
	slices.Sort(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func (r *sampleStats) Max() float64 {
	m := 0.0
	for _, v := range r.samples {
		m = max(m, v)
	}
	return m
}

func (r *sampleStats) Histogram(binWidth float64, bins int) []int {
	if bins <= 0 || !(binWidth > 0) {
		return nil
	}
	h := make([]int, bins)
	for _, v := range r.samples {
		b := bins - 1
		if q := v / binWidth; q < float64(bins) {
			b = int(q)
		}
		h[b]++
	}
	return h
}

// sameStats compares every LatencyStats query against the reference:
// floats bit for bit, so an exact table must give exactly what the
// samples gave, the summation order included.
func sameStats(s *LatencyStats, r *sampleStats) string {
	if s.Count() != len(r.samples) {
		return fmt.Sprintf("Count %d, reference %d", s.Count(), len(r.samples))
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if a, b := s.Mean(), r.Mean(); !same(a, b) {
		return fmt.Sprintf("Mean %v, reference %v", a, b)
	}
	if a, b := s.Max(), r.Max(); !same(a, b) {
		return fmt.Sprintf("Max %v, reference %v", a, b)
	}
	for _, p := range []float64{0.001, 1, 50, 95, 99, 100, 0, -1, 100.5, math.NaN()} {
		if a, b := s.Percentile(p), r.Percentile(p); !same(a, b) {
			return fmt.Sprintf("Percentile(%v) %v, reference %v", p, a, b)
		}
	}
	for _, shape := range []struct {
		width float64
		bins  int
	}{{10, 24}, {1, 1}, {7.5, 40}, {denseCap, 3}, {10, 0}, {0, 5}} {
		if a, b := s.Histogram(shape.width, shape.bins), r.Histogram(shape.width, shape.bins); !slices.Equal(a, b) {
			return fmt.Sprintf("Histogram(%v, %d) %v, reference %v", shape.width, shape.bins, a, b)
		}
	}
	return ""
}

// latencySample maps a random draw onto the latencies a run produces:
// mostly a narrow band, sometimes zero, sometimes spread up to the dense
// table's cap, and rarely an outlier past it.
func latencySample(rng *rand.Rand) uint64 {
	switch k := rng.Intn(100); {
	case k < 5:
		return 0
	case k < 80:
		return uint64(20 + rng.Intn(60))
	case k < 97:
		return uint64(rng.Intn(denseCap))
	default:
		return denseCap + uint64(rng.Int63n(1<<40))
	}
}

// LatencyStats is an exact count table: on random runs of every length,
// checked after every few samples, every query answers exactly what the
// slice of samples answers.
func TestLatencyStatsMatchesSamples(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s LatencyStats
		var r sampleStats
		if msg := sameStats(&s, &r); msg != "" {
			t.Fatalf("seed %d, empty: %s", seed, msg)
		}
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			v := latencySample(rng)
			s.Record(v)
			r.Record(v)
			if i%97 == 0 || i == n-1 {
				if msg := sameStats(&s, &r); msg != "" {
					t.Fatalf("seed %d after %d samples: %s", seed, i+1, msg)
				}
			}
		}
	}
}

// FuzzLatencyStats runs the same comparison on arbitrary sample streams:
// each input byte pair is one latency, and a pair whose first byte has
// its top bit set is pushed past the dense table's cap.
func FuzzLatencyStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 30, 0, 31, 0, 30, 0x80, 1, 0, 0})
	f.Add([]byte{0x3f, 0xff, 0x40, 0, 0xff, 0xff, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s LatencyStats
		var r sampleStats
		for i := 0; i+1 < len(data); i += 2 {
			v := uint64(data[i]&0x7f)<<8 | uint64(data[i+1])
			if data[i]&0x80 != 0 {
				v = denseCap + v*v*v
			}
			s.Record(v)
			r.Record(v)
		}
		if msg := sameStats(&s, &r); msg != "" {
			t.Fatalf("%d samples: %s", len(r.samples), msg)
		}
	})
}

// Property: mean lies within [min, max] and percentiles are monotone.
func TestLatencyProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var s LatencyStats
		lo, hi := float64(raw[0]), float64(raw[0])
		for _, v := range raw {
			s.Record(uint64(v))
			lo = math.Min(lo, float64(v))
			hi = math.Max(hi, float64(v))
		}
		if s.Mean() < lo || s.Mean() > hi {
			return false
		}
		prev := 0.0
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	var u Utilization
	if u.Mean() != 0 {
		t.Fatal("empty utilization not 0")
	}
	u.Sample(1, 4)
	u.Sample(3, 4)
	if u.Mean() != 0.5 {
		t.Fatalf("Mean = %v, want 0.5", u.Mean())
	}
	if u.Samples() != 2 {
		t.Fatalf("Samples = %d", u.Samples())
	}
	u.Sample(5, 0) // zero capacity is ignored
	if u.Samples() != 2 {
		t.Fatal("zero-capacity sample counted")
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{FlitsDelivered: 6400, MessagesDelivered: 1600, Cycles: 100, Nodes: 64}
	if got := tp.FlitsPerNodePerCycle(); got != 1.0 {
		t.Fatalf("throughput = %v, want 1.0", got)
	}
	if (Throughput{}).FlitsPerNodePerCycle() != 0 {
		t.Fatal("empty throughput not 0")
	}
	if tp.String() == "" {
		t.Fatal("empty string")
	}
}

func TestMeanCI95(t *testing.T) {
	if e := MeanCI95(nil); e != (Estimate{}) {
		t.Fatalf("empty input: got %+v, want zero", e)
	}
	if e := MeanCI95([]float64{7}); e.Mean != 7 || e.CI95 != 0 || e.N != 1 {
		t.Fatalf("single sample: got %+v", e)
	}
	// {1..5}: mean 3, sd sqrt(2.5), t(4 df) = 2.776 -> CI 2.776*sd/sqrt(5).
	e := MeanCI95([]float64{1, 2, 3, 4, 5})
	if e.Mean != 3 || e.N != 5 {
		t.Fatalf("mean/N: got %+v", e)
	}
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if math.Abs(e.CI95-want) > 1e-9 {
		t.Fatalf("CI95 = %g, want %g", e.CI95, want)
	}
	// Identical samples: zero-width interval.
	if e := MeanCI95([]float64{4, 4, 4, 4}); e.CI95 != 0 || e.Mean != 4 {
		t.Fatalf("constant samples: got %+v", e)
	}
	// Large N falls back to the normal critical value.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2) // alternating 0/1: sd ~ 0.5025
	}
	eb := MeanCI95(big)
	sd := math.Sqrt(0.25 * 100 / 99)
	if want := 1.96 * sd / 10; math.Abs(eb.CI95-want) > 1e-9 {
		t.Fatalf("large-N CI95 = %g, want %g", eb.CI95, want)
	}
}

func TestMeanCI95NaNPoisons(t *testing.T) {
	// A NaN replicate must surface as a fully-NaN estimate, whatever its
	// position and whether the sample is replicated or not: a corrupted
	// measurement may not hide behind a finite mean or a zero half-width.
	cases := [][]float64{
		{math.NaN()},
		{math.NaN(), 2, 3},
		{1, math.NaN(), 3},
		{1, 2, math.NaN()},
	}
	for _, samples := range cases {
		e := MeanCI95(samples)
		if !math.IsNaN(e.Mean) || !math.IsNaN(e.CI95) {
			t.Errorf("MeanCI95(%v) = %+v, want NaN mean and NaN CI95", samples, e)
		}
		if e.N != len(samples) {
			t.Errorf("MeanCI95(%v).N = %d, want %d", samples, e.N, len(samples))
		}
	}
	// Infinities are not silently poisoned: the mean propagates them.
	if e := MeanCI95([]float64{math.Inf(1), 1}); !math.IsInf(e.Mean, 1) {
		t.Errorf("infinite sample lost: %+v", e)
	}
}

func TestEstimateString(t *testing.T) {
	if s := (Estimate{Mean: 3, N: 1}).String(); s != "3" {
		t.Fatalf("single-sample string %q", s)
	}
	if s := (Estimate{Mean: 3, CI95: 0.5, N: 4}).String(); s != "3 ± 0.5" {
		t.Fatalf("replicated string %q", s)
	}
}

// Add and Sub must cover every field of Events: each field gets its own
// value, so a field either one forgets reads zero (or an operand) and a
// field swapped with another reads the other's value.
func TestEventsAddSubEveryField(t *testing.T) {
	var a, b Events
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range va.NumField() {
		va.Field(i).SetUint(uint64(1000 * (i + 1)))
		vb.Field(i).SetUint(uint64(i + 1))
	}
	sum, diff := reflect.ValueOf(a.Add(b)), reflect.ValueOf(a.Sub(b))
	for i := range va.NumField() {
		name := va.Type().Field(i).Name
		if got, want := sum.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("Add: %s = %d, want %d", name, got, want)
		}
		if got, want := diff.Field(i).Uint(), uint64(999*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", name, got, want)
		}
	}
}
