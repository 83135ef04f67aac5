// Package stats collects the measurements the paper reports: average
// message latency, energy-relevant event counts, buffer utilization
// (Figs. 8–9), corrected-error counts (Fig. 13a), and throughput.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Events tallies the microarchitectural activity that the power model
// converts to energy. A single Events instance is shared by every
// component of a network (the simulator is single-threaded by design).
type Events struct {
	BufWrites       uint64 // flit written into an input VC buffer
	BufReads        uint64 // flit read out of an input VC buffer
	XbTraversals    uint64 // flit through the crossbar
	LinkTraversals  uint64 // flit across an inter-router link
	LocalTraversals uint64 // flit across a PE<->router channel
	VAAllocs        uint64 // VC allocator arbitration operations
	SAAllocs        uint64 // switch allocator arbitration operations
	RetransWrites   uint64 // flit captured into a retransmission buffer
	Retransmitted   uint64 // flit re-sent from a retransmission buffer
	NACKs           uint64 // NACK handshake signals
	Credits         uint64 // credit handshake signals
	Probes          uint64 // deadlock probe/activation control flits
	ECCDecodes      uint64 // SEC/DED decode operations
	ECCCorrections  uint64 // single-bit corrections performed
	ACChecks        uint64 // allocation comparator evaluations
	RTComputes      uint64 // routing-unit computations
}

// LatencyStats accumulates per-message latency samples (injection to tail
// ejection, in cycles) with warm-up discarding handled by the caller.
type LatencyStats struct {
	samples []float64
	sum     float64
}

// Record adds one message latency sample.
func (s *LatencyStats) Record(cycles uint64) {
	v := float64(cycles)
	s.samples = append(s.samples, v)
	s.sum += v
}

// Count returns the number of recorded samples.
func (s *LatencyStats) Count() int { return len(s.samples) }

// Mean returns the average latency, or 0 with no samples.
func (s *LatencyStats) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 with no samples. An out-of-domain p — NaN, p <= 0
// or p > 100 — returns NaN rather than silently clamping to an
// extremum, so callers cannot mistake a bad query for a valid statistic.
func (s *LatencyStats) Percentile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p > 100 {
		return math.NaN()
	}
	if len(s.samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(s.samples))
	copy(sorted, s.samples)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Max returns the largest sample.
func (s *LatencyStats) Max() float64 {
	m := 0.0
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Histogram buckets samples into fixed-width bins for trace tooling.
func (s *LatencyStats) Histogram(binWidth float64, bins int) []int {
	h := make([]int, bins)
	for _, v := range s.samples {
		b := int(v / binWidth)
		if b >= bins {
			b = bins - 1
		}
		h[b]++
	}
	return h
}

// Utilization tracks the time-averaged occupancy fraction of a set of
// buffers, sampled once per cycle: the metric of Figs. 8 and 9.
type Utilization struct {
	sumFrac float64
	n       uint64
}

// Sample records one cycle's occupancy out of capacity.
func (u *Utilization) Sample(occupied, capacity int) {
	if capacity <= 0 {
		return
	}
	u.sumFrac += float64(occupied) / float64(capacity)
	u.n++
}

// Mean returns the time-averaged utilization in [0, 1].
func (u *Utilization) Mean() float64 {
	if u.n == 0 {
		return 0
	}
	return u.sumFrac / float64(u.n)
}

// Samples returns how many cycles were sampled.
func (u *Utilization) Samples() uint64 { return u.n }

// Estimate is a replicated measurement: the sample mean of N replicates
// plus the half-width of its 95% confidence interval (Student's t).
// N <= 1 yields a zero half-width — a single replicate carries no
// dispersion information.
type Estimate struct {
	Mean float64
	CI95 float64 // half-width; the interval is Mean ± CI95
	N    int
}

// String renders "mean ± ci" (or just the mean for N <= 1).
func (e Estimate) String() string {
	if e.N <= 1 || e.CI95 == 0 {
		return fmt.Sprintf("%.4g", e.Mean)
	}
	return fmt.Sprintf("%.4g ± %.3g", e.Mean, e.CI95)
}

// t95 holds two-sided 95% Student-t critical values for 1..30 degrees of
// freedom; beyond that the normal approximation (1.96) is within 2%.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 estimates the population mean from replicate samples: the
// sample mean and the 95% confidence half-width t(n-1) * s / sqrt(n).
// Empty input returns a zero Estimate; a single sample returns its value
// with a zero half-width (no dispersion information). A NaN sample
// poisons the whole estimate — both fields come back NaN, never a
// half-computed mixture — so a corrupted replicate cannot masquerade as
// a tight confidence interval.
func MeanCI95(samples []float64) Estimate {
	n := len(samples)
	if n == 0 {
		return Estimate{}
	}
	for _, v := range samples {
		if math.IsNaN(v) {
			return Estimate{Mean: math.NaN(), CI95: math.NaN(), N: n}
		}
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Estimate{Mean: mean, N: 1}
	}
	ss := 0.0
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	df := n - 1
	t := 1.96
	if df <= len(t95) {
		t = t95[df-1]
	}
	return Estimate{Mean: mean, CI95: t * sd / math.Sqrt(float64(n)), N: n}
}

// Throughput summarises delivery over an interval.
type Throughput struct {
	// FlitsDelivered counts flits ejected at destinations.
	FlitsDelivered uint64
	// MessagesDelivered counts complete messages ejected.
	MessagesDelivered uint64
	// Cycles is the measurement window length.
	Cycles uint64
	// Nodes is the network size.
	Nodes int
}

// FlitsPerNodePerCycle returns accepted traffic in the paper's injection
// units.
func (t Throughput) FlitsPerNodePerCycle() float64 {
	if t.Cycles == 0 || t.Nodes == 0 {
		return 0
	}
	return float64(t.FlitsDelivered) / float64(t.Cycles) / float64(t.Nodes)
}

// String implements fmt.Stringer.
func (t Throughput) String() string {
	return fmt.Sprintf("%d msgs (%d flits) in %d cycles = %.4f flits/node/cycle",
		t.MessagesDelivered, t.FlitsDelivered, t.Cycles, t.FlitsPerNodePerCycle())
}
