// Package sim provides the cycle-driven simulation kernel underneath the
// network model: a deterministic clock, actor scheduling, and delay lines
// that decouple intra-cycle evaluation order from observable behaviour.
//
// The kernel is synchronous. Each call to Kernel.Step advances the global
// clock by one cycle in two phases:
//
//  1. the due Actors' Tick(cycle) runs, reading only values that became
//     visible in this or an earlier cycle and writing only into delay
//     lines, which stamp each value with the cycle it becomes visible at
//     (now + the line's latency, at least one cycle on);
//  2. the delivery hooks of the lines whose values become visible next
//     cycle run — mark the consumer's mask, wake it — and the clock
//     advances. No delay line is visited: a wire costs what is pushed
//     and popped, not the cycles in between.
//
// Because actors never observe same-cycle writes, the order in which they
// tick is immaterial, which is what makes the model cycle-accurate rather
// than merely event-ordered.
//
// # Scheduling modes
//
// SetMode selects between two schedulers that share the actor/pipe model
// and produce identical simulations:
//
//   - ModeNaive (the zero value) ticks every actor every cycle — the
//     exhaustive schedule, and the oracle ModeEvent is checked against.
//   - ModeEvent is a calendar-queue discrete-event scheduler: each actor
//     carries a pending-tick cycle, due handles are drained from a ring
//     of 256 per-cycle bitsets over the actor handles (plus an overflow
//     min-heap for far-future wakes), and cost scales with dispatched
//     events rather than cycles x actors. Busy actors simply reschedule
//     themselves for the next cycle, so a fully-active network
//     degenerates gracefully to the per-cycle walk.
//
// # Quiescence
//
// Under ModeEvent an actor that implements Quiescer (and was opted in with
// EnableQuiescence) may report, after a tick, that it is idle; the kernel
// then stops ticking it until
//
//   - a delay line delivers a value to it (the pipe's Delivery hook, given
//     the actor's handle via WithWake, fires as values become visible), or
//   - its self-declared timed wake cycle arrives (for purely clock-driven
//     work such as a traffic source's next injection slot).
//
// The contract is stated against ModeNaive: every tick the event kernel
// elides must be one that, under the naive schedule, changed nothing an
// observer can see apart from state the actor reconstructs when it next
// ticks (catch-up), and every input the actor reacts to must either
// arrive through a delay line whose Delivery hook wakes it or be covered
// by the timed wake. Upholding that is the actor's job (see DESIGN.md,
// "Kernel performance"); the differential tests hold the two schedules
// to identical output.
//
// Due handles are dispatched in ascending registration order in both
// modes, keeping intra-cycle trace order identical across schedulers.
package sim

import (
	"math/bits"
	"slices"
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
// idle (see the package comment for the contract). Under ModeEvent,
// Quiescent is consulted immediately after each of the actor's own ticks;
// returning quiet=true suspends the actor until a pipe delivery wakes it
// or, if wakeAt > cycle, until that cycle arrives. ModeNaive never asks.
type Quiescer interface {
	Actor
	// Quiescent reports whether the actor is idle after ticking cycle.
	// wakeAt, when > cycle, schedules an unconditional wake at that cycle;
	// wakeAt == 0 means "sleep until a delivery wakes me".
	Quiescent(cycle uint64) (quiet bool, wakeAt uint64)
}

// Handle identifies a registered actor, for wake wiring (Delivery.WithWake).
type Handle int

// Mode selects the kernel's scheduling strategy. Both modes simulate the
// same network identically; they differ only in which cycles an actor's
// Tick is physically invoked on (skipped ticks are provably no-ops).
type Mode uint8

const (
	// ModeNaive ticks every actor every cycle: the differential oracle,
	// and the zero value, so a bare Kernel needs no set-up.
	ModeNaive Mode = iota
	// ModeEvent dispatches only due actors from a calendar queue.
	ModeEvent
)

// Stats is the kernel's cumulative scheduling telemetry. Ticked counts
// actor ticks executed; Skipped counts actor ticks elided relative to the
// naive every-actor-every-cycle schedule; Events counts calendar-queue
// dispatches. Skipped and Events are zero under ModeNaive.
type Stats struct {
	Ticked  uint64
	Skipped uint64
	Events  uint64
}

// wakeEntry is one far-future scheduled tick in the overflow min-heap.
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
// The zero value is ready to use: a ModeNaive scheduler that ticks every
// registered actor each cycle.
type Kernel struct {
	cycle  uint64
	actors []Actor
	// due[c&(len(due)-1)] lists the delivery hooks of the pipes holding
	// values that become visible at cycle c, for the cycles after the
	// current one; Step applies a list at the end of cycle c-1 and keeps
	// its capacity. len(due) is zero or a power of two above every pipe's
	// latency, so a residue names one future cycle.
	due [][]*Delivery

	// The rest is ModeEvent state. quiescers[i] is actors[i] if it was
	// opted in with EnableQuiescence, else nil; asleep[i] is set while
	// actor i has declared itself quiet and not been woken.
	quiescers []Quiescer
	asleep    []bool
	// Calendar queue. pendingAt[i] is the cycle actor i is scheduled to
	// tick on (noPending = none). ring holds one bitset over the actor
	// handles per cycle residue: bucket b occupies
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
	// heap holds scheduled ticks too far ahead for the ring.
	heap []wakeEntry

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

// deliver runs a pipe's delivery hook at the end of the cycle before its
// values become visible: mark the consumer's mask bit, then (ModeEvent)
// return the consumer to the active set so it ticks next cycle. Under
// ModeNaive nobody sleeps, so there is nobody to wake.
func (k *Kernel) deliver(d Delivery) {
	if d.mask != nil {
		*d.mask |= d.bit
	}
	if d.wake == 0 || k.mode != ModeEvent {
		return
	}
	h := d.wake - 1
	k.asleep[h] = false
	k.scheduleTick(h, k.cycle+1)
}

// Asleep reports whether the actor is currently suspended as quiescent.
// An actor merely awaiting its next-cycle tick is not asleep; only one
// that declared itself quiet is. Always false under ModeNaive.
func (k *Kernel) Asleep(h Handle) bool { return k.asleep[h] }

// SetMode selects the scheduler. Must be set before stepping.
func (k *Kernel) SetMode(m Mode) { k.mode = m }

// Mode returns the selected scheduler.
func (k *Kernel) Mode() Mode { return k.mode }

// Stats returns the kernel's cumulative scheduling telemetry.
func (k *Kernel) Stats() Stats {
	return Stats{Ticked: k.ticked, Skipped: k.skipped, Events: k.events}
}

// fitDue sizes the due ring for a pipe of the given latency (called by
// Pipe.Init), moving any queued deliveries to their new residues.
func (k *Kernel) fitDue(latency int) {
	if latency < len(k.due) {
		return
	}
	n := max(4, len(k.due))
	for n <= latency {
		n *= 2
	}
	due := make([][]*Delivery, n)
	for i, list := range k.due {
		// The one cycle in (cycle, cycle+len(k.due)) with residue i; the
		// current cycle's own list was applied a step ago and is empty.
		at := k.cycle + (uint64(i)-k.cycle)&uint64(len(k.due)-1)
		due[at&uint64(n-1)] = list
	}
	k.due = due
}

// dueList returns the list of deliveries to make for cycle at, one of the
// next len(k.due)-1 cycles.
func (k *Kernel) dueList(at uint64) *[]*Delivery { return &k.due[at&uint64(len(k.due)-1)] }

// queueDelivery has hook d applied at the end of cycle at-1 (called by
// Pipe.Push, once per pipe and visible-at cycle). Delivery waits for the
// end of the actor phase even when at is the next cycle: a consumer still
// due this cycle would have the wake dropped by scheduleTick, and could
// then go quiet and sleep through the arrival.
func (k *Kernel) queueDelivery(d *Delivery, at uint64) {
	list := k.dueList(at)
	*list = append(*list, d)
}

// cancelDelivery withdraws d from cycle at's list, if it is there (called
// by Pipe.Filter, which destroys in-flight values between steps).
func (k *Kernel) cancelDelivery(d *Delivery, at uint64) {
	list := k.dueList(at)
	if i := slices.Index(*list, d); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
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

// Step advances simulated time by one cycle: tick the due actors, then
// deliver for the pipes whose values become visible next cycle.
func (k *Kernel) Step() {
	if k.mode == ModeEvent {
		k.tickDue()
	} else {
		c := k.cycle
		for _, a := range k.actors {
			a.Tick(c)
		}
		k.ticked += uint64(len(k.actors))
	}

	// Delivery order is push order, which may differ from registration
	// order — sound because deliveries commute: each ORs a mask bit and
	// asks for a tick next cycle.
	if len(k.due) != 0 {
		list := k.dueList(k.cycle + 1)
		for _, d := range *list {
			k.deliver(*d)
		}
		*list = (*list)[:0]
	}
	k.cycle++
}

// tickDue is the calendar-queue scheduler's actor phase: fold any due
// overflow-heap entries into this cycle's ring bucket, dispatch the
// bucket's surviving handles in registration order, and let each actor
// either reschedule for the next cycle (busy), sleep until a delivery
// (quiet), or sleep with a timed wake (quiet with a deadline).
func (k *Kernel) tickDue() {
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
	// order is registration order = tick order, matching the naive
	// schedule's intra-cycle trace order exactly.
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
