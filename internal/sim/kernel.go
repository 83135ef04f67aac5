// Package sim provides the cycle-driven simulation kernel underneath the
// network model: a deterministic clock, actor scheduling, and latched
// delay lines that decouple intra-cycle evaluation order from observable
// behaviour.
//
// The kernel is synchronous. Each call to Kernel.Step advances the global
// clock by one cycle in two phases:
//
//  1. every registered Actor's Tick(cycle) runs, reading only values
//     latched in previous cycles and writing only into delay lines;
//  2. every delay line advances, making this cycle's writes visible at
//     their programmed latency.
//
// Because actors never observe same-cycle writes, the order in which they
// tick is immaterial, which is what makes the model cycle-accurate rather
// than merely event-ordered.
//
// # Quiescence
//
// An actor that also implements Quiescer may report, after a tick, that it
// is idle until woken. The kernel then stops ticking it — a skipped actor
// must be observationally indistinguishable from one that ticked while
// idle, which is the actor's contract to uphold (see DESIGN.md, "Kernel
// performance"). A quiescent actor returns to the active set when
//
//   - a delay line delivers a value to it (the pipe's Delivery hook, given
//     the actor's handle via WithWake, fires when a latch leaves values
//     visible), or
//   - its self-declared timed wake cycle arrives (for purely clock-driven
//     work such as a traffic source's next injection slot).
//
// # Scheduling modes
//
// SetMode selects among three schedulers that share the actor/latch model
// and produce identical simulations:
//
//   - ModeNaive ticks every actor every cycle — the historical exhaustive
//     schedule, kept as the differential oracle.
//   - ModeQuiescent (the zero value) walks the actor list each cycle but
//     skips sleeping actors.
//   - ModeEvent is a calendar-queue discrete-event scheduler: each actor
//     carries a pending-tick cycle, due handles are drained from a ring
//     of 256 per-cycle bitsets over the actor handles (plus an overflow
//     min-heap for far-future wakes), and cost scales with dispatched
//     events rather than cycles x actors.
//     Busy actors simply reschedule themselves for the next cycle, so a
//     fully-active network degenerates gracefully to the per-cycle walk.
//
// Latch skipping stays on in all modes: an empty pipe's latch is the
// identity, so eliding it is exact. Due handles are dispatched in
// ascending registration order in every mode, keeping intra-cycle trace
// order identical across schedulers.
package sim

import (
	"math/bits"
	"time"
)

// Actor is a component evaluated once per simulated clock cycle.
type Actor interface {
	// Tick evaluates one cycle of behaviour. Implementations must read
	// only state latched before this cycle and buffer their outputs in
	// delay lines (or internal next-state fields committed by a latch
	// Actor registered after them).
	Tick(cycle uint64)
}

// ActorFunc adapts a function to the Actor interface.
type ActorFunc func(cycle uint64)

// Tick implements Actor.
func (f ActorFunc) Tick(cycle uint64) { f(cycle) }

// Quiescer is optionally implemented by actors that can prove themselves
// idle. Quiescent is consulted immediately after each of the actor's own
// ticks; returning quiet=true suspends the actor until a pipe delivery
// wakes it or, if wakeAt > cycle, until that cycle arrives.
//
// The contract: while suspended, the actor's tick must have been a
// semantic no-op apart from state it can reconstruct on wake (catch-up),
// and every external input it reacts to must arrive through a delay line
// whose Delivery hook wakes it (or be covered by the timed wake).
type Quiescer interface {
	Actor
	// Quiescent reports whether the actor is idle after ticking cycle.
	// wakeAt, when > cycle, schedules an unconditional wake at that cycle;
	// wakeAt == 0 means "sleep until a delivery wakes me".
	Quiescent(cycle uint64) (quiet bool, wakeAt uint64)
}

// Handle identifies a registered actor, for wake wiring (Delivery.WithWake).
type Handle int

// Mode selects the kernel's scheduling strategy. All modes simulate the
// same network identically; they differ only in which cycles an actor's
// Tick is physically invoked on (skipped ticks are provably no-ops).
type Mode uint8

const (
	// ModeQuiescent walks all actors each cycle, skipping sleepers. The
	// zero value, for compatibility with kernels built before ModeEvent.
	ModeQuiescent Mode = iota
	// ModeNaive ticks every actor every cycle (differential oracle).
	ModeNaive
	// ModeEvent dispatches only due actors from a calendar queue.
	ModeEvent
	// ModeParallel partitions the actors into worker-owned groups plus a
	// serial group (see SetParallel). Each cycle, worker goroutines step
	// their groups concurrently (quiescent-style, with per-worker timed
	// wake heaps), a barrier waits for all of them, then the serial group
	// ticks in registration order and all latches advance. Cross-group
	// pipe pushes land in staging buffers disjoint from anything the
	// consumer reads this cycle, so the schedule is observationally
	// identical to the synchronous loop.
	ModeParallel
)

// Stats is the kernel's cumulative scheduling telemetry. Ticked counts
// actor ticks executed; Skipped counts actor ticks elided (relative to
// the naive every-actor-every-cycle schedule, in all modes, so the skip
// ratio is comparable across schedulers); Events counts calendar-queue
// dispatches and is zero outside ModeEvent. Workers is non-empty only
// under ModeParallel, one entry per region worker; its Ticked/Skipped
// are already included in the top-level totals.
type Stats struct {
	Ticked  uint64
	Skipped uint64
	Events  uint64
	Workers []WorkerStats
}

// WorkerStats is one parallel region worker's share of the scheduling
// telemetry. BarrierWaitNs is the cumulative wall-clock time the worker
// spent idle at the per-cycle barrier waiting for the serial phase and
// its slower peers — the direct measure of partition imbalance and
// serial-fraction overhead.
type WorkerStats struct {
	Ticked        uint64
	Skipped       uint64
	BarrierWaitNs uint64
}

// activeLatch is implemented by delay lines; the kernel advances armed
// ones after all actors have ticked. latch reports whether the line still
// holds values and must remain armed.
type activeLatch interface {
	latch() bool
}

// wakeEntry is one scheduled timed wake in a min-heap (the quiescent
// mode's timed-wake heap, or the event mode's far-future overflow heap).
type wakeEntry struct {
	at uint64
	h  Handle
}

const (
	// numBuckets sizes the calendar-queue ring. Wakes due within the next
	// numBuckets-1 cycles go in the ring (O(1) insert/drain); anything
	// further — rare: retention sweeps, low-rate sources — overflows to
	// the heap. Power of two so the bucket index is a mask, and larger
	// than every latency constant in the model (pipe depths, NACK window,
	// reprobe interval) so steady-state scheduling never touches the heap.
	numBuckets = 256
	bucketMask = numBuckets - 1

	// noPending marks an actor with no scheduled tick.
	noPending = ^uint64(0)
)

// Kernel drives a set of actors and delay lines through simulated time.
// The zero value is ready to use.
type Kernel struct {
	cycle  uint64
	actors []Actor
	// quiescers[i] is actors[i] if it implements Quiescer, else nil.
	quiescers []Quiescer
	asleep    []bool
	// wakeAt[i] is the pending timed-wake cycle for a sleeping actor
	// (0 = none); heap entries not matching it are stale and ignored.
	// Used by ModeQuiescent only.
	wakeAt []uint64
	// heap holds timed wakes (ModeQuiescent, and ModeParallel's serial
	// group) or far-future scheduled ticks (ModeEvent); the uses never
	// coexist.
	heap []wakeEntry
	// shards hold the armed delay lines; pipes arm themselves on Push
	// into their producer's shard and disarm by returning false from
	// latch. Serial kernels use only shard 0; ModeParallel gives each
	// worker its own shard so concurrent arms never share a slice.
	shards [][]activeLatch

	// Calendar queue (ModeEvent). pendingAt[i] is the cycle actor i is
	// scheduled to tick on (noPending = none). ring holds one bitset over
	// the actor handles per cycle residue: bucket b occupies
	// ring[b*ringWords:(b+1)*ringWords], and bit h of it means "handle h
	// may be due at the next cycle congruent to b". Draining a bucket in
	// word and TrailingZeros order IS ascending registration order, a
	// handle scheduled twice for one cycle is one bit, and the ring never
	// grows. A bit whose pendingAt no longer matches the drain cycle is
	// stale — superseded by an earlier wake — and skipped.
	pendingAt []uint64
	ring      []uint64
	ringWords int
	evInit    bool

	// Parallel scheduling (ModeParallel, see SetParallel). serialH holds
	// the handles ticked by the coordinator after the barrier; workerH[w]
	// holds worker w's handles, both in ascending registration order.
	// wheaps[w] is worker w's private timed-wake heap; wstats[w] its
	// telemetry, written only between the worker's start-receive and
	// done-send so the barrier orders every access. lastTick[h] is the
	// cycle handle h last actually ticked (noPending = never), maintained
	// only in ModeParallel for mid-cycle observers that need to know
	// whether an actor has already advanced past an observation point.
	serialH  []Handle
	workerH  [][]Handle
	wheaps   [][]wakeEntry
	wstats   []WorkerStats
	lastTick []uint64
	startCh  []chan uint64
	doneCh   chan struct{}
	pRunning bool
	pStopped bool

	mode    Mode
	ticked  uint64
	skipped uint64
	events  uint64
}

// Register adds actors to the kernel. Actors tick in registration order,
// though correctness must not depend on that order.
func (k *Kernel) Register(actors ...Actor) {
	for _, a := range actors {
		k.RegisterActor(a)
	}
}

// RegisterActor adds one actor and returns its handle, for wake wiring
// via Delivery.WithWake.
//
// Implementing Quiescer is not by itself enough to be skipped: skipping
// an actor is only sound once every delay line feeding it has a waking
// Delivery hook installed, which the kernel cannot verify. Whoever does
// that wiring opts the actor in with EnableQuiescence.
func (k *Kernel) RegisterActor(a Actor) Handle {
	h := Handle(len(k.actors))
	k.actors = append(k.actors, a)
	k.quiescers = append(k.quiescers, nil)
	k.asleep = append(k.asleep, false)
	k.wakeAt = append(k.wakeAt, 0)
	k.pendingAt = append(k.pendingAt, noPending)
	if k.evInit {
		k.growRing()
		k.scheduleTick(h, k.cycle+1)
	}
	return h
}

// EnableQuiescence opts a registered Quiescer into idle skipping. Call
// only after installing waking hooks on every pipe that delivers to it. A
// non-Quiescer actor is left untouched.
func (k *Kernel) EnableQuiescence(h Handle) {
	if q, ok := k.actors[h].(Quiescer); ok {
		k.quiescers[h] = q
	}
}

// deliver runs a pipe's delivery hook from the serial latch phase: mark
// the consumer's mask bit, then return the consumer to the active set so
// it ticks next cycle. Waking an awake actor is a no-op, so repeated
// deliveries are harmless.
func (k *Kernel) deliver(d Delivery) {
	if d.mask != nil {
		*d.mask |= d.bit
	}
	if d.wake == 0 {
		return
	}
	h := d.wake - 1
	if k.mode == ModeEvent {
		k.asleep[h] = false
		k.scheduleTick(h, k.cycle+1)
		return
	}
	if k.asleep[h] {
		k.asleep[h] = false
		k.wakeAt[h] = 0
	}
}

// Asleep reports whether the actor is currently suspended as quiescent.
// In ModeEvent an actor merely awaiting its next-cycle tick is not
// asleep; only one that declared itself quiet is.
func (k *Kernel) Asleep(h Handle) bool { return k.asleep[h] }

// SetMode selects the scheduler. Must be set before stepping. For
// ModeParallel use SetParallel, which also supplies the partition.
func (k *Kernel) SetMode(m Mode) { k.mode = m }

// SetParallel selects ModeParallel and installs the partition: groups[h]
// assigns registered handle h to region worker groups[h] (0..workers-1),
// or -1 to the serial group ticked by the coordinator after the barrier.
// Workers step their groups concurrently each cycle, so two handles may
// share a group only if ticking them concurrently with every other
// group is race-free (all cross-group communication through pipes, no
// shared mutable state). Must be called after all registrations and
// before the first Step. Worker goroutines start lazily on the first
// Step and run until StopWorkers.
func (k *Kernel) SetParallel(groups []int, workers int) {
	if workers < 1 {
		panic("sim: SetParallel needs >= 1 worker")
	}
	if len(groups) != len(k.actors) {
		panic("sim: SetParallel groups must cover every registered actor")
	}
	k.mode = ModeParallel
	k.serialH = k.serialH[:0]
	k.workerH = make([][]Handle, workers)
	for h, g := range groups {
		switch {
		case g < 0:
			k.serialH = append(k.serialH, Handle(h))
		case g < workers:
			k.workerH[g] = append(k.workerH[g], Handle(h))
		default:
			panic("sim: SetParallel group out of range")
		}
	}
	k.wheaps = make([][]wakeEntry, workers)
	k.wstats = make([]WorkerStats, workers)
	k.lastTick = make([]uint64, len(groups))
	for h := range k.lastTick {
		k.lastTick[h] = noPending
	}
	k.startCh = make([]chan uint64, workers)
	for w := range k.startCh {
		k.startCh[w] = make(chan uint64, 1)
	}
	k.doneCh = make(chan struct{}, workers)
	// Pre-grow the arm shards so no worker ever has to extend the outer
	// slice concurrently: shard 0 is serial, shard w+1 belongs to worker w.
	for len(k.shards) <= workers {
		k.shards = append(k.shards, nil)
	}
}

// Workers returns the number of region workers (0 outside ModeParallel).
func (k *Kernel) Workers() int { return len(k.workerH) }

// LastTicked reports the cycle handle h last actually ticked, and whether
// it has ever ticked. Maintained only under ModeParallel; callers use it
// to decide whether an actor has already advanced past a mid-cycle
// observation point. Call only between phases (e.g. from the serial
// group's ticks or after Step), never concurrently with the workers.
func (k *Kernel) LastTicked(h Handle) (uint64, bool) {
	if k.lastTick == nil || k.lastTick[h] == noPending {
		return 0, false
	}
	return k.lastTick[h], true
}

// StopWorkers shuts down the parallel region workers, if any are
// running. Idempotent; safe outside ModeParallel. The kernel must not be
// stepped afterwards.
func (k *Kernel) StopWorkers() {
	if !k.pRunning || k.pStopped {
		k.pStopped = true
		return
	}
	k.pStopped = true
	for _, ch := range k.startCh {
		close(ch)
	}
	for range k.startCh {
		<-k.doneCh
	}
}

// Mode returns the selected scheduler.
func (k *Kernel) Mode() Mode { return k.mode }

// SetNaive toggles the tick-every-actor fallback kernel, equivalent to
// SetMode(ModeNaive) / SetMode(ModeQuiescent). Kept for callers predating
// the mode API.
func (k *Kernel) SetNaive(naive bool) {
	if naive {
		k.mode = ModeNaive
	} else {
		k.mode = ModeQuiescent
	}
}

// Naive reports whether actor skipping is disabled.
func (k *Kernel) Naive() bool { return k.mode == ModeNaive }

// Stats returns the kernel's cumulative scheduling telemetry. Under
// ModeParallel the top-level Ticked/Skipped fold in every worker's
// share and Workers carries the per-worker breakdown. Call only between
// steps (the barrier makes that race-free), never from inside a tick.
func (k *Kernel) Stats() Stats {
	s := Stats{Ticked: k.ticked, Skipped: k.skipped, Events: k.events}
	if len(k.wstats) > 0 {
		s.Workers = append([]WorkerStats(nil), k.wstats...)
		for _, w := range k.wstats {
			s.Ticked += w.Ticked
			s.Skipped += w.Skipped
		}
	}
	return s
}

// arm adds a delay line to the given arm-shard (called by Pipe.Push).
// Serial producers use shard 0; parallel worker w's pipes use shard w+1,
// so no two goroutines ever append to the same slice.
func (k *Kernel) arm(l activeLatch, shard int) {
	for len(k.shards) <= shard {
		k.shards = append(k.shards, nil)
	}
	k.shards[shard] = append(k.shards[shard], l)
}

// heapPush schedules an entry on a min-heap ordered by at.
func heapPush(heap *[]wakeEntry, e wakeEntry) {
	h := append(*heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*heap = h
}

// heapPop removes and returns the earliest entry.
func heapPop(heap *[]wakeEntry) wakeEntry {
	h := *heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].at < h[small].at {
			small = l
		}
		if r < len(h) && h[r].at < h[small].at {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	*heap = h
	return top
}

// scheduleTick (ModeEvent) records that actor h must tick at cycle at,
// unless an earlier tick is already pending. Near wakes set h's bit in
// the ring bucket for their cycle — a bit lands in bucket at&bucketMask
// only when at is the next cycle with that residue, so every bit in a
// drained bucket is due exactly then; far wakes overflow to the heap.
// Superseded bits are left in place and filtered at drain time.
func (k *Kernel) scheduleTick(h Handle, at uint64) {
	if at <= k.cycle {
		at = k.cycle + 1
	}
	if k.pendingAt[h] <= at {
		return
	}
	k.pendingAt[h] = at
	if at-k.cycle < numBuckets {
		k.markDue(h, at)
	} else {
		heapPush(&k.heap, wakeEntry{at: at, h: h})
	}
}

// markDue sets h's bit in the ring bucket of cycle at.
func (k *Kernel) markDue(h Handle, at uint64) {
	k.ring[int(at&bucketMask)*k.ringWords+int(h)>>6] |= 1 << (uint(h) & 63)
}

// growRing sizes the calendar ring for the registered actors, keeping
// any bits already scheduled. Called at the first event-mode step and by
// registrations after it; a no-op while the bitsets are wide enough.
func (k *Kernel) growRing() {
	words := (len(k.actors) + 63) / 64
	if words <= k.ringWords {
		return
	}
	ring := make([]uint64, numBuckets*words)
	for b := 0; b < numBuckets && k.ringWords > 0; b++ {
		copy(ring[b*words:], k.ring[b*k.ringWords:(b+1)*k.ringWords])
	}
	k.ring, k.ringWords = ring, words
}

// Cycle returns the number of completed cycles.
func (k *Kernel) Cycle() uint64 { return k.cycle }

// Step advances simulated time by one cycle.
func (k *Kernel) Step() {
	if k.mode == ModeEvent {
		k.stepEvent()
		return
	}
	if k.mode == ModeParallel {
		k.stepParallel()
		return
	}
	c := k.cycle

	// Fire timed wakes due this cycle. Stale heap entries (the actor was
	// woken earlier by a delivery, or re-slept with a different deadline)
	// are recognised by wakeAt disagreeing with the entry.
	for len(k.heap) > 0 && k.heap[0].at <= c {
		e := heapPop(&k.heap)
		if k.asleep[e.h] && k.wakeAt[e.h] == e.at {
			k.asleep[e.h] = false
			k.wakeAt[e.h] = 0
		}
	}

	naive := k.mode == ModeNaive
	for i, a := range k.actors {
		if k.asleep[i] {
			k.skipped++
			continue
		}
		a.Tick(c)
		k.ticked++
		if q := k.quiescers[i]; q != nil && !naive {
			if quiet, at := q.Quiescent(c); quiet {
				k.asleep[i] = true
				if at > c {
					k.wakeAt[i] = at
					heapPush(&k.heap, wakeEntry{at: at, h: Handle(i)})
				} else {
					k.wakeAt[i] = 0
				}
			}
		}
	}

	k.latchAndAdvance()
}

// stepEvent advances one cycle under the calendar-queue scheduler: fold
// any due overflow-heap entries into this cycle's ring bucket, dispatch
// the bucket's surviving handles in registration order, and let each
// actor either reschedule for the next cycle (busy), sleep until a
// delivery (quiet), or sleep with a timed wake (quiet with a deadline).
func (k *Kernel) stepEvent() {
	c := k.cycle
	if !k.evInit {
		// First event-mode step: every registered actor starts due now.
		k.evInit = true
		k.growRing()
		for h := range k.actors {
			k.pendingAt[h] = c
			k.markDue(Handle(h), c)
		}
	}
	for len(k.heap) > 0 && k.heap[0].at <= c {
		k.markDue(heapPop(&k.heap).h, c)
	}

	// Each word is taken and zeroed before its handles dispatch:
	// reschedules during dispatch target later cycles, so they can never
	// land back in this cycle's bucket (at == c+numBuckets overflows to
	// the heap rather than aliasing the ring). Ascending word and bit
	// order is registration order = tick order, matching the other
	// schedulers' intra-cycle trace order exactly.
	ticked := 0
	bucket := k.ring[int(c&bucketMask)*k.ringWords:][:k.ringWords]
	for w := range bucket {
		word := bucket[w]
		bucket[w] = 0
		for ; word != 0; word &= word - 1 {
			h := Handle(w<<6 + bits.TrailingZeros64(word))
			if k.pendingAt[h] != c {
				continue // superseded by an earlier wake
			}
			k.pendingAt[h] = noPending
			k.asleep[h] = false
			k.actors[h].Tick(c)
			ticked++
			if q := k.quiescers[h]; q != nil {
				if quiet, at := q.Quiescent(c); quiet {
					k.asleep[h] = true
					if at > c {
						k.scheduleTick(h, at)
					}
					continue
				}
			}
			k.scheduleTick(h, c+1)
		}
	}
	k.events += uint64(ticked)
	k.ticked += uint64(ticked)
	k.skipped += uint64(len(k.actors) - ticked)

	k.latchAndAdvance()
}

// stepParallel advances one cycle under the partitioned scheduler:
// start every region worker on this cycle, wait for all of them at the
// barrier, tick the serial group in registration order, then run the
// latch phase. Workers only read state latched in earlier cycles and
// write into staging buffers nothing else reads this cycle, so the
// result is identical to ticking everything on one goroutine; the
// barrier plus the start/done channel pairs provide the happens-before
// edges that make the sharing visible (and -race clean).
func (k *Kernel) stepParallel() {
	c := k.cycle
	if !k.pRunning {
		if k.pStopped {
			panic("sim: Step after StopWorkers")
		}
		k.pRunning = true
		for w := range k.workerH {
			go k.workerLoop(w)
		}
	}
	for _, ch := range k.startCh {
		ch <- c
	}
	for range k.startCh {
		<-k.doneCh
	}

	// Serial phase: timed wakes then ticks for the serial group, exactly
	// the quiescent schedule restricted to serialH. Pipe delivery hooks
	// fired later in the latch phase also run here on the coordinator.
	for len(k.heap) > 0 && k.heap[0].at <= c {
		e := heapPop(&k.heap)
		if k.asleep[e.h] && k.wakeAt[e.h] == e.at {
			k.asleep[e.h] = false
			k.wakeAt[e.h] = 0
		}
	}
	for _, h := range k.serialH {
		if k.asleep[h] {
			k.skipped++
			continue
		}
		k.actors[h].Tick(c)
		k.lastTick[h] = c
		k.ticked++
		if q := k.quiescers[h]; q != nil {
			if quiet, at := q.Quiescent(c); quiet {
				k.asleep[h] = true
				if at > c {
					k.wakeAt[h] = at
					heapPush(&k.heap, wakeEntry{at: at, h: h})
				} else {
					k.wakeAt[h] = 0
				}
			}
		}
	}

	k.latchAndAdvance()
}

// workerLoop is one region worker: wait for a start signal, step the
// region, signal done. The time between signalling done and receiving
// the next start is the worker's barrier wait — the serial phase plus
// straggler peers — accumulated into its WorkerStats.
func (k *Kernel) workerLoop(w int) {
	var waitFrom time.Time
	for {
		c, ok := <-k.startCh[w]
		if !waitFrom.IsZero() {
			k.wstats[w].BarrierWaitNs += uint64(time.Since(waitFrom))
		}
		if !ok {
			k.doneCh <- struct{}{}
			return
		}
		k.tickGroup(w, c)
		k.doneCh <- struct{}{}
		waitFrom = time.Now()
	}
}

// tickGroup steps worker w's handles for one cycle: fire the worker's
// due timed wakes, then walk the group in ascending registration order
// skipping sleepers — the quiescent schedule restricted to one region.
func (k *Kernel) tickGroup(w int, c uint64) {
	heap := &k.wheaps[w]
	for len(*heap) > 0 && (*heap)[0].at <= c {
		e := heapPop(heap)
		if k.asleep[e.h] && k.wakeAt[e.h] == e.at {
			k.asleep[e.h] = false
			k.wakeAt[e.h] = 0
		}
	}
	var ticked, skipped uint64
	for _, h := range k.workerH[w] {
		if k.asleep[h] {
			skipped++
			continue
		}
		k.actors[h].Tick(c)
		k.lastTick[h] = c
		ticked++
		if q := k.quiescers[h]; q != nil {
			if quiet, at := q.Quiescent(c); quiet {
				k.asleep[h] = true
				if at > c {
					k.wakeAt[h] = at
					heapPush(heap, wakeEntry{at: at, h: h})
				} else {
					k.wakeAt[h] = 0
				}
			}
		}
	}
	k.wstats[w].Ticked += ticked
	k.wstats[w].Skipped += skipped
}

// latchAndAdvance runs the cycle's latch phase and advances the clock.
// Latch-order equals arm-order, which may differ from historical
// registration order — sound because latches are independent: each
// pipe only rotates its own ring. Delivery hooks fired here mark the
// consumers' masks and return them to the active set for the next cycle.
func (k *Kernel) latchAndAdvance() {
	for s, shard := range k.shards {
		n := 0
		for _, l := range shard {
			if l.latch() {
				shard[n] = l
				n++
			}
		}
		k.shards[s] = shard[:n]
	}
	k.cycle++
}

// Run advances simulated time by n cycles.
func (k *Kernel) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the kernel until done returns true or limit cycles have
// elapsed. It returns true if done was satisfied within the limit.
func (k *Kernel) RunUntil(done func() bool, limit uint64) bool {
	for i := uint64(0); i < limit; i++ {
		if done() {
			return true
		}
		k.Step()
	}
	return done()
}
