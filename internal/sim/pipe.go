package sim

// Pipe is a delay line carrying values of type T with a fixed latency in
// cycles. A value pushed during cycle c becomes poppable at the start of
// cycle c+latency. Pipes are the only legal way for actors to
// communicate, guaranteeing that intra-cycle evaluation order never leaks.
//
// A Pipe with latency 1 models a register stage; the paper's single-cycle
// inter-router links, single-cycle NACK propagation, and single-cycle
// error-check delay are all latency-1 pipes.
//
// Internally the pipe is one FIFO ring whose entries carry the cycle they
// become visible at. Nothing advances per cycle: the consumer's side
// compares the head's stamp with the kernel clock, so a value a consumer
// does not drain simply stays at the head, and an idle or pooled wire
// costs nothing until somebody touches it. The ring starts empty (or as
// InitRings' window) and doubles when full, in the consumer's store
// (Slabs), so a pipe in steady state performs zero allocations.
type Pipe[T any] struct {
	k       *Kernel
	latency int
	// slot(i) for i in [0,held) are the values not yet consumed, oldest
	// first, starting at buf[head]; len(buf) is zero or a power of two. Stamps
	// never decrease along the ring (the clock only advances and the
	// latency is fixed), so the visible values are a prefix.
	buf  []stamped[T]
	head int
	held int
	// queued is the latest visible-at cycle whose delivery is already on
	// the kernel's due ring, so a cycle's pushes queue the hook once. Zero
	// means none: stamps are at least 1.
	queued uint64
	// hook is what the pipe does for its consumer when values become
	// visible (see Delivery); the zero value does nothing. The due ring
	// points at it, so a hook installed while values are in flight still
	// fires for them.
	hook Delivery
}

// stamped is one ring entry: a value and the cycle it becomes visible at.
type stamped[T any] struct {
	at uint64
	v  T
}

// Delivery is a pipe's delivery hook: what happens for the consumer when
// pushed values become visible. It is a plain value — no closure, no
// allocation per wire — with two independent parts. WithMark names a bit
// in a mask the consumer owns: the delivery sets it, the consumer clears
// it once it has drained the pipe, so a consumer fed by many pipes polls
// only those whose bit is set (a clear bit proves the pipe shows
// nothing, and draining nothing is a no-op, so skipping is exact).
// WithWake adds the kernel wake that returns a quiescent consumer to the
// active set. The zero value does nothing.
//
// A delivery happens once per cycle on which values become visible, not
// once per cycle they stay visible: a consumer that clears its bit, or
// goes quiet, without draining the pipe is not told again.
type Delivery struct {
	mask *uint8
	bit  uint8
	// wake is 1 + the handle to wake, so the zero value wakes nobody.
	wake Handle
}

// WithMark returns d extended to also set bit in *mask on delivery.
func (d Delivery) WithMark(mask *uint8, bit uint8) Delivery {
	d.mask, d.bit = mask, bit
	return d
}

// WithWake returns d extended to also wake actor h on delivery.
func (d Delivery) WithWake(h Handle) Delivery {
	d.wake = h + 1
	return d
}

// NewPipe creates a delay line with the given latency (>= 1) on kernel k.
func NewPipe[T any](k *Kernel, latency int) *Pipe[T] {
	p := new(Pipe[T])
	p.Init(k, latency)
	return p
}

// Init readies a zero Pipe embedded in another struct, as NewPipe does
// for a separately allocated one. The pipe must not be copied afterwards.
func (p *Pipe[T]) Init(k *Kernel, latency int) {
	if latency < 1 {
		panic("sim: pipe latency must be >= 1")
	}
	p.k, p.latency = k, latency
	k.fitDue(latency)
}

// firstRing is the depth of a pipe's first ring.
const firstRing = 4

// InitRings gives n pipes their first rings in one slab from s (Make):
// pipe(i)'s ring is a capacity-capped window of a shared arena, so those
// pipes allocate nothing until one holds more than firstRing values at
// once. A ring that outgrows its window is replaced by grow, never
// extended into a neighbour's. The pipes must be empty.
func InitRings[T any](s *Slabs, n int, pipe func(i int) *Pipe[T]) {
	arena := Make[stamped[T]](s, n*firstRing)
	for i := 0; i < n; i++ {
		p := pipe(i)
		if p.held != 0 {
			panic("sim: InitRings on a pipe holding values")
		}
		p.buf, p.head = arena[i*firstRing:(i+1)*firstRing:(i+1)*firstRing], 0
	}
}

// SetDelivery installs the delivery hook, which fires at the end of the
// cycle before pushed values become visible. One hook per pipe: a pipe
// has a single consumer. Values already visible mark the new mask at
// once, and values still in flight deliver through the new hook, so
// attaching late never hides anything.
func (p *Pipe[T]) SetDelivery(d Delivery) {
	p.hook = d
	if d.mask != nil && !p.Empty() {
		*d.mask |= d.bit
	}
}

// Delivery returns the installed hook, for callers that extend it (the
// consumer installs its mask bit, whoever registers the consumer with a
// kernel adds the wake).
func (p *Pipe[T]) Delivery() Delivery { return p.hook }

// Latency returns the pipe's configured delay in cycles.
func (p *Pipe[T]) Latency() int { return p.latency }

// Push enqueues v for delivery latency cycles from now.
func (p *Pipe[T]) Push(v T) { *p.PushSlot() = v }

// PushSlot enqueues a value for delivery latency cycles from now and
// returns the ring slot it rests in, for the caller to fill: the slot
// holds whatever its last occupant left, and the pointer is good until
// the next push on this pipe.
func (p *Pipe[T]) PushSlot() *T {
	if p.held == len(p.buf) {
		p.grow()
	}
	at := p.k.cycle + uint64(p.latency)
	e := p.slot(p.held)
	e.at = at
	p.held++
	if p.queued != at {
		p.queued = at
		p.k.queueDelivery(&p.hook, at)
	}
	return &e.v
}

// slot returns the ring entry i places behind the oldest one.
func (p *Pipe[T]) slot(i int) *stamped[T] { return &p.buf[(p.head+i)&(len(p.buf)-1)] }

// Slabs returns the store the pipe's consumer grows its buffers in: that
// of the actor its delivery wakes (Kernel.Slabs).
func (p *Pipe[T]) Slabs() *Slabs { return p.k.Slabs(p.hook.wake - 1) }

// grow doubles a full ring (or makes the first one) in the consumer's
// store, unrolling it to start at index 0.
func (p *Pipe[T]) grow() {
	buf := Make[stamped[T]](p.Slabs(), max(firstRing, 2*len(p.buf)))
	n := copy(buf, p.buf[p.head:])
	copy(buf[n:], p.buf[:p.head])
	p.buf, p.head = buf, 0
}

// Pop removes and returns the oldest value visible this cycle. ok is false
// if no value is available.
func (p *Pipe[T]) Pop() (v T, ok bool) {
	if s := p.PopSlot(); s != nil {
		return *s, true
	}
	return v, false
}

// PopSlot removes the oldest value visible this cycle and returns the
// ring slot it still rests in, or nil if no value is available. The slot
// is the caller's to read and write until the next push on this pipe,
// which may reuse it. A pipe's producer and consumer are different
// actors, so none can happen before the consumer's Tick returns; Filter
// runs between steps, when nobody holds one.
func (p *Pipe[T]) PopSlot() *T {
	if p.Empty() {
		return nil
	}
	e := &p.buf[p.head]
	p.head = (p.head + 1) & (len(p.buf) - 1)
	p.held--
	return &e.v
}

// PeekSlot returns the slot of the i-th value visible this cycle, oldest
// first (0 is the one PopSlot would take), without removing it, or nil if
// fewer are visible. A slot still on the ring is never reused; the
// pointer is good until the next push, which may move the ring.
func (p *Pipe[T]) PeekSlot(i int) *T {
	if i >= p.held {
		return nil
	}
	if e := p.slot(i); e.at <= p.k.cycle {
		return &e.v
	}
	return nil
}

// Peek returns the oldest visible value without removing it.
func (p *Pipe[T]) Peek() (v T, ok bool) {
	if s := p.PeekSlot(0); s != nil {
		return *s, true
	}
	return v, false
}

// Empty reports whether no value is visible this cycle. Values still in
// flight (pushed fewer than latency cycles ago) do not count.
func (p *Pipe[T]) Empty() bool { return p.held == 0 || p.buf[p.head].at > p.k.cycle }

// Visible reports how many values a consumer could pop this cycle.
func (p *Pipe[T]) Visible() int {
	n := 0
	for n < p.held && p.slot(n).at <= p.k.cycle {
		n++
	}
	return n
}

// InFlight reports the total number of values buffered anywhere in the
// pipe, including those not yet visible.
func (p *Pipe[T]) InFlight() int { return p.held }

// Each visits every value still held by the pipe — visible-but-unpopped
// and in-flight — oldest first. It is a read-only inspection for
// invariant checkers and debug tooling; fn must not push or pop.
func (p *Pipe[T]) Each(fn func(T)) {
	for i := 0; i < p.held; i++ {
		fn(p.slot(i).v)
	}
}

// Filter destructively removes every value v for which remove(v) is
// true, visible or in flight, invoking fn (if non-nil) on each removed
// value. It returns the number removed. It is the hard-fault machinery's
// wire-destruction primitive and must run between kernel steps, never
// from an actor tick. Relative order of the kept values is preserved.
func (p *Pipe[T]) Filter(remove func(T) bool, fn func(T)) int {
	kept := 0
	for i := 0; i < p.held; i++ {
		e := *p.slot(i)
		if remove(e.v) {
			if fn != nil {
				fn(e.v)
			}
			continue
		}
		*p.slot(kept) = e
		kept++
	}
	removed := p.held - kept
	p.held = kept
	if removed > 0 {
		p.requeueDeliveries()
	}
	return removed
}

// requeueDeliveries re-derives the pipe's queued deliveries from the
// in-flight values Filter kept, so a cycle whose arrivals were all
// destroyed neither marks nor wakes the consumer.
func (p *Pipe[T]) requeueDeliveries() {
	now := p.k.cycle
	for at := now + 1; at <= now+uint64(p.latency); at++ {
		p.k.cancelDelivery(&p.hook, at)
	}
	p.queued = 0
	for i := 0; i < p.held; i++ {
		if at := p.slot(i).at; at > now && at != p.queued {
			p.queued = at
			p.k.queueDelivery(&p.hook, at)
		}
	}
}
