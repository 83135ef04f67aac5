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
// # Quiescence
//
// Every registered actor starts awake and is ticked every cycle. An actor
// that implements Quiescer and was opted in with EnableQuiescence may
// report, after a tick, that it is idle; the kernel then clears its bit in
// the awake set and stops ticking it until
//
//   - a delay line delivers a value to it (the pipe's Delivery hook, given
//     the actor's handle via WithWake, fires as values become visible), or
//   - its self-declared timed wake cycle arrives (for purely clock-driven
//     work such as a traffic source's next injection slot).
//
// The contract is stated against a kernel in which nobody opted in, which
// ticks every actor every cycle: every tick the kernel elides must be one
// that, under that schedule, changed nothing an observer can see apart
// from state the actor derives from the clock or reconstructs when it
// next ticks (a traffic source's catch-up), and every input the actor
// reacts to must either arrive through a delay line whose Delivery hook
// wakes it or be covered by the timed wake. Upholding that is the actor's
// job (see DESIGN.md, "Wires and scheduler"); the differential tests hold
// the two schedules to identical output.
//
// Awake actors are ticked in ascending registration order, so intra-cycle
// trace order does not depend on who slept.
//
// # Two shards
//
// Because tick order within a cycle is immaterial, Step can run the actor
// phase as two shards (Split, StartShards, ShardStep): the awake words
// below the cut on the calling goroutine, the rest on a long-lived helper
// goroutine, joined by a spin-then-yield barrier. The shards must share
// no written memory, and the kernel keeps its own part of that: a
// delivery queues on the due ring of the shard whose actor it wakes, each
// shard makes its own ring's deliveries, and shard 1's timed wakes are
// pushed onto the heap after the join in the order it made them, so the
// heap, the awake set and every tick count end as a serial walk — shard
// 0's actors, then shard 1's — leaves them. The owner keeps the rest (a
// Barrier): wires whose two ends tick in different shards are pushed at
// the barrier (Commit), whatever else the actors share is split per
// shard, and what the owner reads of a shard's actors after every step
// it may read in ShardDone, on that shard's goroutine before the join,
// rather than on the caller after it.
//
// Who decides what: the owner fixes the cut once, when it builds the
// kernel (Split, on an awake-set word boundary, ShardBoundary), so an
// actor's shard, due ring and store never change, and it decides step by
// step whether a step may run as two shards (ShardStep); the kernel makes
// both due rings in one slab of the owner's store (Reserve) and claims
// the two cores from a process-wide budget of GOMAXPROCS (StartShards
// refuses when they are not free, so never at one P), and a worker pool
// holds its own share of that budget (HoldCores, ReleaseCores).
package sim

import (
	"fmt"
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
// idle (see the package comment for the contract). Once the actor is opted
// in with EnableQuiescence, Quiescent is consulted immediately after each
// of its ticks; returning quiet=true suspends the actor until a pipe
// delivery wakes it or, if wakeAt > cycle, until that cycle arrives. An
// actor that was not opted in is never asked.
type Quiescer interface {
	Actor
	// Quiescent reports whether the actor is idle after ticking cycle.
	// wakeAt, when > cycle, schedules an unconditional wake at that cycle;
	// wakeAt == 0 means "sleep until a delivery wakes me".
	Quiescent(cycle uint64) (quiet bool, wakeAt uint64)
}

// Handle identifies a registered actor, for wake wiring (Delivery.WithWake).
type Handle int

// Stats is the kernel's cumulative scheduling telemetry. Ticked counts
// actor ticks executed; Skipped counts actor ticks elided relative to the
// every-actor-every-cycle schedule; Events counts the ticks dispatched to
// actors opted in with EnableQuiescence — the ones the kernel scheduled
// rather than owed. Skipped and Events are zero when nobody opted in.
// Sharded counts the steps whose actor phase ran as two shards.
type Stats struct {
	Ticked  uint64
	Skipped uint64
	Events  uint64
	Sharded uint64
}

// Summary renders the counters as the tail of a CLI's kernel summary
// line: the share of actor ticks skipped, then the ticks dispatched and
// the steps ticked as two shards when there were any. It is empty when no
// actor tick was due. (It is not String, so %+v keeps printing the raw
// counters.)
func (s Stats) Summary() string {
	total := s.Ticked + s.Skipped
	if total == 0 {
		return ""
	}
	out := fmt.Sprintf("%.1f%% actor ticks skipped", 100*float64(s.Skipped)/float64(total))
	if s.Events > 0 {
		out += fmt.Sprintf(", %d events dispatched", s.Events)
	}
	if s.Sharded > 0 {
		out += fmt.Sprintf(", %d steps as two shards", s.Sharded)
	}
	return out
}

// wakeEntry is one timed wake in the min-heap.
type wakeEntry struct {
	at uint64
	h  Handle
}

// Kernel drives a set of actors and delay lines through simulated time.
// The zero value is ready to use, and with nobody opted into quiescence it
// ticks every registered actor each cycle.
type Kernel struct {
	cycle  uint64
	actors []Actor
	// due[s][c&(len(due[s])-1)] lists the delivery hooks of the pipes
	// holding values that become visible at cycle c, for the cycles after
	// the current one, that wake an actor of shard s (shardOf); Step
	// applies a list at the end of cycle c-1 and keeps its capacity. Both
	// rings are zero or the same power of two long, above every pipe's
	// latency, so a residue names one future cycle.
	due [2][][]*Delivery

	// awake is a bitset over the handles: bit h set means actor h ticks at
	// the next Step. Walking it in word and TrailingZeros order is
	// ascending registration order.
	awake []uint64
	// quiescers[h] is actors[h] if it was opted in with EnableQuiescence,
	// else nil: only those ever have their awake bit cleared.
	quiescers []Quiescer
	// wakeAt[h] is the timed wake actor h last went quiet with, 0 for
	// none, and while that cycle lies ahead heap holds an entry for it.
	// An entry whose cycle is not its actor's wakeAt is stale — the actor
	// has since declared another wake, or none — and pops without effect.
	wakeAt []uint64
	// heap is the only kernel field written while shards tick (shard 0's
	// timed wakes); the padding keeps it off the lines shard 1 reads.
	_    [64]byte
	heap []wakeEntry
	_    [64]byte

	ticked  uint64
	skipped uint64
	events  uint64
	sharded uint64

	split int       // shard 1's first awake word (Split); 0: one shard
	slabs [2]*Slabs // the stores each shard's actors grow in (Slabs)
	par   shards    // the two-shard state (StartShards)
}

// Register adds actors to the kernel. Actors tick in registration order,
// though correctness must not depend on that order.
func (k *Kernel) Register(actors ...Actor) {
	for _, a := range actors {
		k.RegisterActor(a)
	}
}

// RegisterActor adds one actor, awake at the next Step, and returns its
// handle, for wake wiring via Delivery.WithWake. Call it between steps.
//
// Implementing Quiescer is not by itself enough to be skipped: skipping
// an actor is only sound once every delay line feeding it has a waking
// Delivery hook installed, which the kernel cannot verify. Whoever does
// that wiring opts the actor in with EnableQuiescence.
func (k *Kernel) RegisterActor(a Actor) Handle {
	h := Handle(len(k.actors))
	k.actors = append(k.actors, a)
	k.quiescers = append(k.quiescers, nil)
	k.wakeAt = append(k.wakeAt, 0)
	if int(h)>>6 == len(k.awake) {
		k.awake = append(k.awake, 0)
	}
	k.wake(h)
	return h
}

// Reserve presizes the actor tables for n more registrations, so that
// registering them allocates nothing, and the timed-wake heap for one
// wake per actor. Tables it has to grow come from s (Grow), and so does
// every buffer the actors grow (Slabs).
func (k *Kernel) Reserve(s *Slabs, n int) {
	k.slabs[0] = s
	k.actors = Grow(s, k.actors, n)
	k.quiescers = Grow(s, k.quiescers, n)
	k.wakeAt = Grow(s, k.wakeAt, n)
	k.awake = Grow(s, k.awake, (len(k.actors)+n+63)>>6-len(k.awake))
	k.heap = Grow(s, k.heap, len(k.actors)+n-len(k.heap))
}

// Split fixes the cut between the kernel's two shards: shard 1 is the
// actors from first on, which must start an awake-set word past the first
// (ShardBoundary gives one). Call it once, after registering the actors
// and before any value is pushed. Shard membership never changes after:
// deliveries that wake shard 1's actors queue on its own due ring, and
// those actors grow their buffers in a store of its own (Slabs), whether
// or not a step ticks two shards.
func (k *Kernel) Split(first Handle) {
	if first <= 0 || first&63 != 0 || int(first) >= len(k.actors) {
		panic("sim: shard cut not on an awake-set word boundary")
	}
	k.split = int(first) >> 6
	if s := k.slabs[0]; s != nil {
		if s.shard1 == nil {
			s.shard1 = new(Slabs)
		}
		k.slabs[1] = s.shard1
	}
}

// shardOf returns the shard actor h ticks in: 1 from the cut (Split) on,
// else 0. A handle below 0 names no actor, and is shard 0's.
func (k *Kernel) shardOf(h Handle) int {
	if k.split != 0 && int(h)>>6 >= k.split {
		return 1
	}
	return 0
}

// Slabs returns the store actor h grows its buffers in (Grow): Reserve's,
// or for an actor of shard 1 one of that store's own, so the two shards
// never grow in one store.
func (k *Kernel) Slabs(h Handle) *Slabs { return k.slabs[k.shardOf(h)] }

// EnableQuiescence opts a registered Quiescer into idle skipping. Call
// only after installing waking hooks on every pipe that delivers to it. A
// non-Quiescer actor is left untouched.
func (k *Kernel) EnableQuiescence(h Handle) {
	if q, ok := k.actors[h].(Quiescer); ok {
		k.quiescers[h] = q
	}
}

// wake returns actor h to the awake set; a no-op if it is there already.
func (k *Kernel) wake(h Handle) { k.awake[h>>6] |= 1 << (uint(h) & 63) }

// deliver runs a pipe's delivery hook at the end of the cycle before its
// values become visible: mark the consumer's mask bit, then return the
// consumer to the awake set so it ticks next cycle.
func (k *Kernel) deliver(d Delivery) {
	if d.mask != nil {
		*d.mask |= d.bit
	}
	if d.wake != 0 {
		k.wake(d.wake - 1)
	}
}

// Asleep reports whether the actor is currently suspended as quiescent.
// Always false for an actor that was not opted in.
func (k *Kernel) Asleep(h Handle) bool { return k.awake[h>>6]&(1<<(uint(h)&63)) == 0 }

// Stats returns the kernel's cumulative scheduling telemetry.
func (k *Kernel) Stats() Stats {
	return Stats{Ticked: k.ticked, Skipped: k.skipped, Events: k.events, Sharded: k.sharded}
}

// fitDue sizes the due rings for a pipe of the given latency (called by
// Pipe.Init), in one slab of Reserve's store (Make), moving any queued
// deliveries to their new residues.
func (k *Kernel) fitDue(latency int) {
	old := len(k.due[0])
	if latency < old {
		return
	}
	n := max(4, old)
	for n <= latency {
		n *= 2
	}
	due := Make[[]*Delivery](k.slabs[0], 2*n)
	for s, ring := range k.due {
		for i, list := range ring {
			// The one cycle in (cycle, cycle+old) with residue i; the
			// current cycle's own list was applied a step ago and is empty.
			at := k.cycle + (uint64(i)-k.cycle)&uint64(old-1)
			due[s*n+int(at&uint64(n-1))] = list
		}
	}
	k.due = [2][][]*Delivery{due[:n:n], due[n:]}
}

// dueList returns shard s's list of deliveries to make for cycle at, one
// of the next len(k.due[s])-1 cycles.
func (k *Kernel) dueList(s int, at uint64) *[]*Delivery { return &k.due[s][at&uint64(len(k.due[s])-1)] }

// queueDelivery has hook d applied at the end of cycle at-1 (called by
// Pipe.Push, once per pipe and visible-at cycle), from the due ring of
// the shard it wakes. Every push a shard makes while shards tick wakes
// one of its own actors (a wire between the shards is pushed at the
// barrier), so each shard appends to its own ring only. Delivery waits
// for the end of the actor phase even when at is the next cycle: a
// consumer woken at push time but still to tick this cycle would see
// nothing yet, go quiet, clear its own bit and sleep through the arrival.
func (k *Kernel) queueDelivery(d *Delivery, at uint64) {
	s := k.shardOf(d.wake - 1)
	list := k.dueList(s, at)
	if len(*list) == cap(*list) {
		*list = Grow(k.slabs[s], *list, 1)
	}
	*list = append(*list, d)
}

// cancelDelivery withdraws d from cycle at's list, if it is there (called
// by Pipe.Filter, which destroys in-flight values between steps).
func (k *Kernel) cancelDelivery(d *Delivery, at uint64) {
	list := k.dueList(k.shardOf(d.wake-1), at)
	if i := slices.Index(*list, d); i >= 0 {
		*list = slices.Delete(*list, i, i+1)
	}
}

// deliverDue applies shard s's deliveries for cycle at, if the kernel has
// pipes, and empties its list. Delivery order is push order, which may
// differ from registration order — sound because deliveries commute: each
// ORs a mask bit and an awake bit.
func (k *Kernel) deliverDue(s int, at uint64) {
	if len(k.due[s]) == 0 {
		return
	}
	list := k.dueList(s, at)
	for _, d := range *list {
		k.deliver(*d)
	}
	*list = (*list)[:0]
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

// Cycle returns the number of completed cycles.
func (k *Kernel) Cycle() uint64 { return k.cycle }

// Step advances simulated time by one cycle: wake the actors whose timed
// wake is this cycle, tick the awake set (as two shards if ShardStep asked
// for it), then deliver for the pipes whose values become visible next
// cycle.
func (k *Kernel) Step() {
	c := k.cycle
	for len(k.heap) > 0 && k.heap[0].at <= c {
		if e := heapPop(&k.heap); k.wakeAt[e.h] == e.at {
			k.wake(e.h)
		}
	}

	ticked, events := k.actorPhase(c)
	if k.par.h != nil {
		k.par.b.Commit()
	}
	k.ticked += uint64(ticked)
	k.skipped += uint64(len(k.actors) - ticked)
	k.events += uint64(events)

	k.deliverDue(0, c+1)
	k.deliverDue(1, c+1)
	k.cycle++
}

// tick ticks the actors of awake words [lo, hi) for cycle c and returns
// the ticks and quiescence events dispatched. A timed wake goes onto the
// heap, or onto *wakes when that is non-nil (shard 1's, pushed after the
// join).
//
// Nothing sets an awake bit during the walk — deliveries wait for its
// end — so each word is read once, and the bits of the actors that went
// quiet are cleared once the word is walked, in a word no other shard
// touches.
func (k *Kernel) tick(c uint64, lo, hi int, wakes *[]wakeEntry) (ticked, events int) {
	for w := lo; w < hi; w++ {
		var quiet uint64
		for word := k.awake[w]; word != 0; word &= word - 1 {
			h := Handle(w<<6 + bits.TrailingZeros64(word))
			k.actors[h].Tick(c)
			ticked++
			q := k.quiescers[h]
			if q == nil {
				continue
			}
			events++
			idle, at := q.Quiescent(c)
			if !idle {
				continue
			}
			quiet |= word & -word
			if at <= c {
				at = 0
			}
			// A quiet actor repeating the wake it already has on the heap
			// (a PE woken by an ejection, mid-wait for its next injection
			// slot) pushes nothing.
			if at != k.wakeAt[h] {
				k.wakeAt[h] = at
				switch {
				case at == 0:
				case wakes != nil:
					*wakes = append(*wakes, wakeEntry{at: at, h: h})
				default:
					heapPush(&k.heap, wakeEntry{at: at, h: h})
				}
			}
		}
		if quiet != 0 {
			k.awake[w] &^= quiet
		}
	}
	return ticked, events
}

// Run advances simulated time by n cycles.
func (k *Kernel) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.Step()
	}
}
