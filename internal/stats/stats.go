// Package stats collects the measurements the paper reports: average
// message latency, energy-relevant event counts, buffer utilization
// (Figs. 8–9), corrected-error counts (Fig. 13a), and throughput.
package stats

import (
	"fmt"
	"math"
	"slices"

	"ftnoc/internal/sim"
)

// Events tallies the microarchitectural activity that the power model
// converts to energy. A network keeps one per shard, charged by the
// components of that shard and summed (Add) where read.
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

// Add returns the field-by-field sum of e and o.
func (e Events) Add(o Events) Events {
	return Events{
		BufWrites:       e.BufWrites + o.BufWrites,
		BufReads:        e.BufReads + o.BufReads,
		XbTraversals:    e.XbTraversals + o.XbTraversals,
		LinkTraversals:  e.LinkTraversals + o.LinkTraversals,
		LocalTraversals: e.LocalTraversals + o.LocalTraversals,
		VAAllocs:        e.VAAllocs + o.VAAllocs,
		SAAllocs:        e.SAAllocs + o.SAAllocs,
		RetransWrites:   e.RetransWrites + o.RetransWrites,
		Retransmitted:   e.Retransmitted + o.Retransmitted,
		NACKs:           e.NACKs + o.NACKs,
		Credits:         e.Credits + o.Credits,
		Probes:          e.Probes + o.Probes,
		ECCDecodes:      e.ECCDecodes + o.ECCDecodes,
		ECCCorrections:  e.ECCCorrections + o.ECCCorrections,
		ACChecks:        e.ACChecks + o.ACChecks,
		RTComputes:      e.RTComputes + o.RTComputes,
	}
}

// Sub returns the field-by-field difference e - o.
func (e Events) Sub(o Events) Events {
	return Events{
		BufWrites:       e.BufWrites - o.BufWrites,
		BufReads:        e.BufReads - o.BufReads,
		XbTraversals:    e.XbTraversals - o.XbTraversals,
		LinkTraversals:  e.LinkTraversals - o.LinkTraversals,
		LocalTraversals: e.LocalTraversals - o.LocalTraversals,
		VAAllocs:        e.VAAllocs - o.VAAllocs,
		SAAllocs:        e.SAAllocs - o.SAAllocs,
		RetransWrites:   e.RetransWrites - o.RetransWrites,
		Retransmitted:   e.Retransmitted - o.Retransmitted,
		NACKs:           e.NACKs - o.NACKs,
		Credits:         e.Credits - o.Credits,
		Probes:          e.Probes - o.Probes,
		ECCDecodes:      e.ECCDecodes - o.ECCDecodes,
		ECCCorrections:  e.ECCCorrections - o.ECCCorrections,
		ACChecks:        e.ACChecks - o.ACChecks,
		RTComputes:      e.RTComputes - o.RTComputes,
	}
}

// LatencyStats accumulates per-message latency samples (injection to tail
// ejection, in whole cycles) with warm-up discarding handled by the
// caller. It keeps an exact count per latency rather than the samples
// themselves, so its size is set by the spread of latencies, not by how
// many messages a run measures: counts[v] is the number of samples of
// latency v for v < len(counts), a table that grows by doubling up to
// denseCap entries, and the rarer samples at or past denseCap are kept
// one by one in over. The running sum is accumulated in recording order,
// so Mean is the same float a slice of samples summed in order gives.
type LatencyStats struct {
	counts []uint64
	over   []uint64 // samples >= denseCap, in no particular order
	n      int
	max    uint64
	sum    float64
	slabs  *sim.Slabs // where counts grows (GrowIn)
}

// GrowIn has the count table grow in store s (sim.Grow), so a run
// repeated in one store allocates nothing for it; nil is plain make.
func (s *LatencyStats) GrowIn(st *sim.Slabs) { s.slabs = st }

// denseCap bounds the count table: 1<<14 cycles of latency, 128 KiB at
// most. A sample at or past it is an outlier stored exactly in the
// overflow list.
const denseCap = 1 << 14

// minDense is the count table's size on its first sample, 2 KiB: it
// covers the latencies, tail included, of a run below saturation on the
// paper's 8x8 mesh without growing.
const minDense = 256

// Record adds one message latency sample.
func (s *LatencyStats) Record(cycles uint64) {
	s.n++
	s.sum += float64(cycles)
	if cycles > s.max {
		s.max = cycles
	}
	if cycles >= denseCap {
		s.over = append(s.over, cycles)
		return
	}
	if cycles >= uint64(len(s.counts)) {
		s.grow(cycles)
	}
	s.counts[cycles]++
}

// grow doubles the count table until it covers latency v (< denseCap).
func (s *LatencyStats) grow(v uint64) {
	size := max(len(s.counts), minDense)
	for uint64(size) <= v {
		size *= 2
	}
	s.counts = sim.Grow(s.slabs, s.counts, size-len(s.counts))[:size]
}

// Merge adds o's samples into s, as if each had been recorded in s. The
// sums are of whole cycles, exact in a float64 up to 2^53, so the merged
// Mean is the one a single recording in any order gives.
func (s *LatencyStats) Merge(o *LatencyStats) {
	if o.n == 0 {
		return
	}
	if len(o.counts) > len(s.counts) {
		s.grow(uint64(len(o.counts) - 1))
	}
	for v, c := range o.counts {
		s.counts[v] += c
	}
	s.over = append(s.over, o.over...)
	s.n += o.n
	s.sum += o.sum
	s.max = max(s.max, o.max)
}

// Count returns the number of recorded samples.
func (s *LatencyStats) Count() int { return s.n }

// Mean returns the average latency, or 0 with no samples.
func (s *LatencyStats) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank, or 0 with no samples. An out-of-domain p — NaN, p <= 0
// or p > 100 — returns NaN rather than silently clamping to an
// extremum, so callers cannot mistake a bad query for a valid statistic.
// The rank is read off the cumulative counts; only the overflow list is
// sorted (in place), and only when the rank falls inside it.
func (s *LatencyStats) Percentile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p > 100 {
		return math.NaN()
	}
	if s.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(s.n))) - 1
	rank = min(max(rank, 0), s.n-1)
	for v, c := range s.counts {
		if uint64(rank) < c {
			return float64(v)
		}
		rank -= int(c)
	}
	slices.Sort(s.over)
	return float64(s.over[rank])
}

// Max returns the largest sample, or 0 with no samples.
func (s *LatencyStats) Max() float64 { return float64(s.max) }

// Histogram buckets samples into bins fixed-width bins for trace tooling,
// the last one open-ended. It returns nil for a non-positive bin count
// or a width that is not a positive number.
func (s *LatencyStats) Histogram(binWidth float64, bins int) []int {
	if bins <= 0 || !(binWidth > 0) {
		return nil
	}
	h := make([]int, bins)
	bin := func(v uint64) int {
		if q := float64(v) / binWidth; q < float64(bins) {
			return int(q)
		}
		return bins - 1
	}
	for v, c := range s.counts {
		h[bin(uint64(v))] += int(c)
	}
	for _, v := range s.over {
		h[bin(v)]++
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
