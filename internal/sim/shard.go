package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// cores counts the cores of GOMAXPROCS that simulation work has claimed,
// process-wide: a worker pool holds one per worker for its lifetime, and
// a run that ticks two shards holds two while it runs.
var cores atomic.Int64

// claimCores claims n cores if that many of GOMAXPROCS are unclaimed and
// reports whether it did. Release them with ReleaseCores.
func claimCores(n int) bool {
	for {
		c := cores.Load()
		if c+int64(n) > int64(runtime.GOMAXPROCS(0)) {
			return false
		}
		if cores.CompareAndSwap(c, c+int64(n)) {
			return true
		}
	}
}

// HoldCores claims n cores whether or not they are free, for a pool that
// keeps n workers busy. Release them with ReleaseCores.
func HoldCores(n int) { cores.Add(int64(n)) }

// ReleaseCores returns n cores claimed by HoldCores.
func ReleaseCores(n int) { cores.Add(-int64(n)) }

// ShardBoundary returns the first handle of shard 1 for a kernel of
// actors registered actors: the awake-set word boundary nearest the
// middle, or 0 when that leaves either shard with under a third of the
// actors. On a 2-CPU host a lone 6x6 run, split 32/4 nodes, ran 5-18%
// slower as two shards than as one; every split measured at or past a
// third (7x7 at 32/17 up to 16x16) ran faster.
func ShardBoundary(actors int) int {
	b := (actors + 63) >> 6 / 2 << 6
	if 3*b < actors || 3*(actors-b) < actors {
		return 0
	}
	return b
}

// A Barrier is what the owner of a sharded kernel does at the end of its
// actor phases (StartShards).
type Barrier interface {
	// ShardDone runs on shard s's own goroutine in every step ticked as
	// two shards — shard 0's on the calling goroutine, shard 1's on the
	// helper — once the shard's actors have ticked and its deliveries are
	// made, before Commit: it is where the owner reads what only the
	// shard's own actors wrote. It never runs in a one-shard step.
	ShardDone(s int)
	// Commit runs on the calling goroutine after every actor phase until
	// StopShards, before the remaining deliveries: it is where wires whose
	// two ends tick in different shards publish what was pushed onto
	// them.
	Commit()
}

// shards is a kernel's two-shard state, live between StartShards and
// StopShards (h != nil).
type shards struct {
	h *helper
	b Barrier
	// split is shard 1's first awake word: shard 1's actors are the
	// handles from split<<6 on.
	split int
	// next has the next Step tick shard 1 on the helper.
	next bool
}

// StartShards readies the kernel to tick its awake set as two shards,
// the actors below first on the calling goroutine and the rest on a
// helper goroutine, in the steps ShardStep asks for; b's Commit runs
// after every actor phase until StopShards, its ShardDone at the end of
// each shard of a two-shard step. first must start an awake-set word
// past the first (ShardBoundary gives one). StartShards claims two cores
// of GOMAXPROCS for the helper and the caller, and reports false, doing
// nothing, when they are not free or the kernel already shards. Pipes
// must all be made first.
func (k *Kernel) StartShards(b Barrier, first Handle) bool {
	if first <= 0 || first&63 != 0 || int(first) >= len(k.actors) {
		panic("sim: shard cut not on an awake-set word boundary")
	}
	if k.par.h != nil || !claimCores(2) {
		return false
	}
	h := takeHelper()
	h.k = k
	if len(h.due) != len(k.due) {
		h.due = make([][]*Delivery, len(k.due))
	}
	k.par = shards{h: h, b: b, split: int(first) >> 6}
	k.moveDue(k.due, h.due, true)
	return true
}

// StopShards returns the helper and the two cores and goes back to
// ticking every step on the calling goroutine. A no-op without
// StartShards.
func (k *Kernel) StopShards() {
	h := k.par.h
	if h == nil {
		return
	}
	h.wait() // a step the calling goroutine left by a panic may still run
	k.moveDue(h.due, k.due, false)
	h.k = nil
	h.run() // the helper acknowledges, and parks
	for _, list := range h.due {
		clear(list[:cap(list)]) // hold no pointer into this kernel's pipes
	}
	giveHelper(h)
	k.par = shards{}
	ReleaseCores(2)
	scrubRegisters()
}

// scrubLen is a variable so that scrubRegisters copies by runtime.memmove.
var scrubLen = 256

// scrubRegisters zeroes the calling thread's X0-X15, which an amd64
// memmove of 129-256 bytes goes through. The collector scans the saved
// registers of a goroutine it preempts asynchronously as pointers, and a
// sharded run leaves words pointing into its slabs in X13 and X14: in about
// one 16x16 run in fifty they kept the finished network alive through the
// next build's first collection, doubling the heap goal (peak RSS +7 MiB).
//
//go:noinline
func scrubRegisters() byte {
	var zero, dst [256]byte
	copy(dst[:scrubLen], zero[:scrubLen])
	return dst[scrubLen-1]
}

// moveDue moves queued deliveries from one ring to another: those that
// wake an actor of shard 1 when toShard1 is set, else all of them.
func (k *Kernel) moveDue(from, to [][]*Delivery, toShard1 bool) {
	for i, list := range from {
		kept := list[:0]
		for _, d := range list {
			if toShard1 && int(d.wake) <= k.par.split<<6 {
				kept = append(kept, d)
				continue
			}
			to[i] = append(to[i], d)
		}
		from[i] = kept
	}
}

// ShardStep asks for the next Step to tick shard 1 on the helper (on) or
// the whole awake set on the calling goroutine, and reports which it
// will: outside StartShards, one shard.
func (k *Kernel) ShardStep(on bool) bool {
	k.par.next = on && k.par.h != nil
	return k.par.next
}

// actorPhase ticks the awake set for cycle c, as two shards when the step
// asked for it, and returns the ticks and quiescence events dispatched.
//
// Shard order is serial order: shard 0's actors come first. Shard 0
// pushes its timed wakes onto the heap as it goes; shard 1 buffers them
// on the helper, and they are pushed here after the join, in the order
// shard 1 made them, so the heap ends up as a serial walk leaves it. Each
// shard then makes the deliveries on its own ring for the next cycle —
// they set bits only the shard's own actors read — and ends with the
// barrier's ShardDone.
func (k *Kernel) actorPhase(c uint64) (ticked, events int) {
	if !k.par.next {
		return k.tick(c, 0, len(k.awake), nil)
	}
	h := k.par.h
	h.wakes = h.wakes[:0]
	h.post()
	ticked, events = k.tick(c, 0, k.par.split, nil)
	if len(k.due) != 0 {
		k.deliverDue(k.due, c+1)
	}
	k.par.b.ShardDone(0)
	h.wait()
	if p := h.panicked; p != nil {
		h.panicked = nil
		panic(p)
	}
	for _, e := range h.wakes {
		heapPush(&k.heap, e)
	}
	k.sharded++
	return ticked + h.ticked, events + h.events
}

// helper is a goroutine that ticks shard 1 of the kernel holding it.
// Helpers live as long as the process: StopShards parks one and returns
// it to idleHelpers for the next kernel, so a run that shards allocates
// neither a goroutine nor the buffers below, and an idle helper costs no
// CPU.
type helper struct {
	// start publishes the main goroutine's posts, done the helper's
	// acknowledgements. Each is polled by one side and written by the
	// other, so each keeps to cache lines of its own, away from what the
	// helper writes as it ticks.
	start signal
	done  signal

	// k is the kernel whose shard 1 the next post ticks; nil parks the
	// helper. Written before a post, read after it.
	k *Kernel
	// seq is the main goroutine's post count.
	seq uint64
	_   [64]byte

	// Shard 1's side of a step: its tick counts and the timed wakes it
	// made, for the main goroutine to push; due is its delivery ring
	// (Kernel.due).
	ticked, events int
	wakes          []wakeEntry
	due            [][]*Delivery
	panicked       any
}

// A signal is a count one goroutine publishes and another waits on. The
// waiter polls; past spinFor it offers its P and its CPU between polls
// (runtime.Gosched, osYield), so that a garbage collector's worker, a
// publisher the OS has descheduled or left without a P, or another
// process runs; past parkAfter it blocks.
type signal struct {
	seq    atomic.Uint64
	parked atomic.Bool
	ch     chan struct{}
	_      [48]byte
}

// A step's serial part (deliveries, the run loop, the barrier) and the
// shards' imbalance are a few microseconds, inside spinFor; a garbage
// collection stalls one side for hundreds, inside parkAfter, which only a
// serial stretch of the run (the warm-up boundary) outlasts. The clock is
// read once every clockPolls polls while spinning.
const (
	spinFor    = 20 * time.Microsecond
	parkAfter  = 2 * time.Millisecond
	clockPolls = 256
)

// publish sets the count to v and wakes a parked waiter.
func (s *signal) publish(v uint64) {
	s.seq.Store(v)
	if s.parked.Load() && s.parked.CompareAndSwap(true, false) {
		s.ch <- struct{}{}
	}
}

// next returns the count once it is other than v; it polls only when
// spin is set.
func (s *signal) next(v uint64, spin bool) uint64 {
	var start time.Time
	yielding := false
	for i := 0; ; i++ {
		if x := s.seq.Load(); x != v {
			return x
		}
		if spin {
			if yielding {
				// Offer the P, which a garbage collector's worker, or the
				// publisher when GOMAXPROCS has dropped to one, waits
				// for; then the CPU to other threads.
				runtime.Gosched()
				osYield()
			}
			if !yielding && i%clockPolls != 0 {
				continue
			}
			now := time.Now()
			if start.IsZero() {
				start = now
			}
			if wait := now.Sub(start); wait < parkAfter {
				yielding = wait >= spinFor
				continue
			}
		}
		s.parked.Store(true)
		if x := s.seq.Load(); x != v {
			if !s.parked.CompareAndSwap(true, false) {
				<-s.ch // publish saw us parked and is sending
			}
			return x
		}
		<-s.ch
	}
}

var idleHelpers struct {
	sync.Mutex
	hs []*helper
}

func takeHelper() *helper {
	idleHelpers.Lock()
	defer idleHelpers.Unlock()
	if n := len(idleHelpers.hs); n > 0 {
		h := idleHelpers.hs[n-1]
		idleHelpers.hs = idleHelpers.hs[:n-1]
		return h
	}
	h := &helper{}
	h.start.ch, h.done.ch = make(chan struct{}, 1), make(chan struct{}, 1)
	go h.loop()
	return h
}

func giveHelper(h *helper) {
	idleHelpers.Lock()
	idleHelpers.hs = append(idleHelpers.hs, h)
	idleHelpers.Unlock()
}

// post starts the helper on its next step.
func (h *helper) post() {
	h.seq++
	h.start.publish(h.seq)
}

// wait returns once the helper has finished the step last posted.
func (h *helper) wait() { h.done.next(h.seq-1, true) }

// run posts a step and waits for it.
func (h *helper) run() {
	h.post()
	h.wait()
}

// loop is the helper goroutine. While a kernel holds it, it waits for a
// post spinning first (signal.next), as its run claimed this core and a
// parked helper is woken onto the poster's P, to be stolen from there by
// the idle one. Held by no kernel, it parks at once.
func (h *helper) loop() {
	var seen uint64
	held := false
	for {
		seen = h.start.next(seen, held)
		k := h.k
		if held = k != nil; held {
			h.tick(k)
		}
		h.done.publish(seen)
		if held {
			// The two shards hold both Ps for the whole run. Offering
			// this one once a step lets a garbage collection's mark
			// worker in; kept out, it would let the heap grow for the
			// rest of the run.
			runtime.Gosched()
		}
	}
}

// tick runs shard 1 of k's actor phase, keeping a panic for the main
// goroutine to raise.
func (h *helper) tick(k *Kernel) {
	defer func() {
		if p := recover(); p != nil {
			h.panicked = p
		}
	}()
	c := k.cycle
	h.ticked, h.events = k.tick(c, k.par.split, len(k.awake), &h.wakes)
	if len(h.due) != 0 {
		k.deliverDue(h.due, c+1)
	}
	k.par.b.ShardDone(1)
}
