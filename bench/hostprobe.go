package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hostProbe reads how fast the host is right now. The reference host is
// a shared VM whose speed swings by up to 2x for seconds to minutes at a
// time, so a wall time says as much about the neighbours as about the
// code: over ten 20 s runs the fastest-quartile mean of raw walls spread
// by 3-18%, the normalised median by 1-5%, 12% once (README.md, "Measured
// noise"). The probe is three fixed kernels of bench-only code, ~4 ms in
// all, run before and after every op; an op's wall divided by the
// reading is the op's cost at a fixed host speed.
//
// The probe runs in the runner process, never in the process that runs
// the ops: the runner is idle while a round runs, so the program under
// test shares no scheduler, heap or collector with the probe and cannot
// move the reading except by what it leaves running between ops. The
// round's process asks for a reading over a pipe (serve, probeClient).
type hostProbe struct {
	sortSrc []int
	table   map[uint32]uint32
	// lanes are the per-goroutine working sets: the pooled reading runs
	// on two goroutines at once.
	lanes [2]*probeLane
}

type probeLane struct {
	sortBuf []int
	nodes   []probeNode
	sink    uint64 // keeps the kernels' results live
}

// probeNode is one station of the token-passing kernel: a small ring
// queue and two ways on, like a router's VC buffer and output ports.
type probeNode struct {
	q           [8]uint32
	head, n     uint32
	next, other *probeNode
	_           [4]uint64
}

const (
	// poolChunks quarter-size kernel sets make one pooled reading, and
	// poolScaleMs is the pooled wall that counts as a reading of 1.0, so
	// that both shapes read about 1.0 on the reference host in a
	// moderately quiet state (there the median of pooled wall / single
	// reading is 4.45). It fixes the unit of the two pooled workloads'
	// timings and nothing else: on another host they all scale by one
	// factor.
	poolChunks  = 8
	poolScaleMs = 4.45
)

func newHostProbe() *hostProbe {
	p := &hostProbe{sortSrc: make([]int, 4000), table: make(map[uint32]uint32, 8192)}
	x := uint32(1)
	for i := range p.sortSrc {
		x = x*1664525 + 1013904223
		p.sortSrc[i] = int(x >> 8)
	}
	for i := uint32(0); i < 8192; i++ {
		p.table[i*2654435761] = i
	}
	for l := range p.lanes {
		lane := &probeLane{sortBuf: make([]int, len(p.sortSrc)), nodes: make([]probeNode, 4096)}
		for i := range lane.nodes {
			x = x*1664525 + 1013904223
			lane.nodes[i].next = &lane.nodes[(i+1)%len(lane.nodes)]
			lane.nodes[i].other = &lane.nodes[int(x>>8)%len(lane.nodes)]
		}
		p.lanes[l] = lane
	}
	return p
}

// read is the reading in the shape of the ops it will scale. An op that
// computes on one goroutine gets the geometric mean of the three kernels'
// wall times on one goroutine. An op that spreads its work over both
// cores (the campaign pool, the fabric's two workers) gets the pooled
// reading: quarter-size kernel sets handed to two goroutines from a
// shared counter, as the pool hands out grid points, timed as a whole,
// so either core's neighbours slow it the way they slow the op. A
// one-goroutine reading says nothing about such an op when the two
// cores' neighbours differ, and a pooled reading is thrown by anything
// else that runs in the VM, which a one-goroutine op never notices.
func (p *hostProbe) read(pooled bool) float64 {
	if !pooled {
		a, b, c := p.kernels(p.lanes[0], 1)
		return math.Cbrt(a * b * c)
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, lane := range p.lanes {
		wg.Add(1)
		go func(lane *probeLane) {
			defer wg.Done()
			for next.Add(1) <= poolChunks {
				p.kernels(lane, 4)
			}
		}(lane)
	}
	wg.Wait()
	return sinceMs(t0) / poolScaleMs
}

// kernels runs the three kernels on lane l at 1/div of their full size
// and returns each one's wall time in milliseconds.
func (p *hostProbe) kernels(l *probeLane, div int) (sortMs, tokensMs, lookupsMs float64) {
	// Comparison sorting: branchy and compute-bound.
	t0 := time.Now()
	for r := 0; r < 4/div; r++ {
		copy(l.sortBuf, p.sortSrc)
		sort.Ints(l.sortBuf)
	}
	sortMs = sinceMs(t0)

	// Tokens hop between small queues over pointers, with data-dependent
	// branches: the kernel closest to the simulator's own inner loop.
	t0 = time.Now()
	x := uint32(7)
	n := &l.nodes[0]
	for i := 0; i < 150000/div; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		if n.n < 8 && x&3 != 0 {
			n.q[(n.head+n.n)&7] = x
			n.n++
		}
		if n.n > 0 && x&4 != 0 {
			v := n.q[n.head&7]
			n.head++
			n.n--
			if o := n.other; o.n < 8 {
				o.q[(o.head+o.n)&7] = v
				o.n++
			}
		}
		if x&8 != 0 {
			n = n.other
		} else {
			n = n.next
		}
	}
	tokensMs = sinceMs(t0)

	// Hash-map reads over a table larger than L1.
	t0 = time.Now()
	var s uint32
	for i := uint32(0); i < uint32(40000/div); i++ {
		s += p.table[(i&8191)*2654435761]
	}
	lookupsMs = sinceMs(t0)
	l.sink += uint64(l.sortBuf[0]) + uint64(x) + uint64(s)
	return sortMs, tokensMs, lookupsMs
}

// Requests on the probe pipe: one byte names the shape of the reading,
// and the reply is the reading as a line of text.
const (
	probeSingle = 's'
	probePooled = 'p'
)

// serve answers a round process's requests until it closes the pipe.
func (p *hostProbe) serve(req io.Reader, rep io.Writer) {
	var shape [1]byte
	for {
		if _, err := io.ReadFull(req, shape[:]); err != nil {
			return
		}
		if _, err := fmt.Fprintf(rep, "%g\n", p.read(shape[0] == probePooled)); err != nil {
			return
		}
	}
}

// probeClient is the round process's end of the probe pipe.
type probeClient struct {
	req io.Writer
	rep *bufio.Reader
}

func (c probeClient) read(pooled bool) (float64, error) {
	shape := byte(probeSingle)
	if pooled {
		shape = probePooled
	}
	if _, err := c.req.Write([]byte{shape}); err != nil {
		return 0, fmt.Errorf("asking the runner for a host reading: %w", err)
	}
	var ms float64
	if _, err := fmt.Fscanln(c.rep, &ms); err != nil {
		return 0, fmt.Errorf("reading the runner's host reading: %w", err)
	}
	return ms, nil
}
