package sim

// Pipe is a latched delay line carrying values of type T with a fixed
// latency in cycles. A value pushed during cycle c becomes poppable at the
// start of cycle c+latency. Pipes are the only legal way for actors to
// communicate, guaranteeing that intra-cycle evaluation order never leaks.
//
// A Pipe with latency 1 models a register stage; the paper's single-cycle
// inter-router links, single-cycle NACK propagation, and single-cycle
// error-check delay are all latency-1 pipes.
//
// Internally the pipe is a ring of latency+1 reusable buffers: one visible
// buffer and latency in-flight stages. Advancing the ring recycles the
// drained visible buffer as the new staging buffer, so a pipe in steady
// state performs zero allocations. An empty pipe additionally disarms
// itself from the kernel's active-latch list, so idle wires cost nothing
// per cycle (see Kernel).
type Pipe[T any] struct {
	k       *Kernel
	latency int
	// bufs[vis] holds values visible now (with the first off already
	// consumed); bufs[(vis+i)%len] becomes visible after i more latches;
	// bufs[(vis+latency)%len] is the staging buffer collecting this
	// cycle's pushes. Each buffer may carry multiple values (e.g. a credit
	// pipe aggregating several VCs); ordering within a buffer is FIFO.
	bufs [][]T
	vis  int
	off  int
	// held counts the unconsumed values anywhere in the ring: staged,
	// in-flight, and visible-but-unpopped.
	held int
	// armed mirrors membership in the kernel's active-latch list.
	armed bool
	// hook is what the pipe does for its consumer whenever a latch leaves
	// values visible (see Delivery); the zero value does nothing.
	hook Delivery
}

// Delivery is a pipe's delivery hook: what happens for the consumer when
// a latch leaves values visible. It is a plain value — no closure, no
// allocation per wire — with two independent parts. WithMark names a bit
// in a mask the consumer owns: the latch sets it, the consumer clears it
// once it has drained the pipe, so a consumer fed by many pipes polls
// only those whose bit is set (a clear bit proves the pipe shows
// nothing, and draining nothing is a no-op, so skipping is exact).
// WithWake adds the kernel wake that returns a quiescent consumer to the
// active set. The zero value does nothing.
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

// NewPipe creates a delay line with the given latency (>= 1) and registers
// it with the kernel for end-of-cycle latching.
func NewPipe[T any](k *Kernel, latency int) *Pipe[T] {
	if latency < 1 {
		panic("sim: pipe latency must be >= 1")
	}
	p := &Pipe[T]{
		k:       k,
		latency: latency,
		bufs:    make([][]T, latency+1),
	}
	return p
}

// SetDelivery installs the delivery hook, which fires at the end of any
// cycle whose latch leaves at least one value visible. One hook per pipe:
// a pipe has a single consumer. Values already visible mark the new mask
// at once, so attaching late never hides them.
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
func (p *Pipe[T]) Push(v T) {
	s := (p.vis + p.latency) % len(p.bufs)
	p.bufs[s] = append(p.bufs[s], v)
	p.held++
	if !p.armed {
		p.armed = true
		p.k.arm(p)
	}
}

// Pop removes and returns the oldest value visible this cycle. ok is false
// if no value is available.
func (p *Pipe[T]) Pop() (v T, ok bool) {
	head := p.bufs[p.vis]
	if p.off >= len(head) {
		return v, false
	}
	v = head[p.off]
	p.off++
	p.held--
	return v, true
}

// Peek returns the oldest visible value without removing it.
func (p *Pipe[T]) Peek() (v T, ok bool) {
	head := p.bufs[p.vis]
	if p.off >= len(head) {
		return v, false
	}
	return head[p.off], true
}

// PopAll removes and returns every value visible this cycle. The returned
// slice aliases the pipe's internal ring buffer and is valid only until
// the next latch; callers must consume (or copy) it within the cycle.
func (p *Pipe[T]) PopAll() []T {
	head := p.bufs[p.vis][p.off:]
	p.off = len(p.bufs[p.vis])
	p.held -= len(head)
	return head
}

// Empty reports whether no value is visible this cycle. Values still in
// flight (pushed fewer than latency cycles ago) do not count.
func (p *Pipe[T]) Empty() bool { return p.off >= len(p.bufs[p.vis]) }

// Visible reports how many values a consumer could pop this cycle.
func (p *Pipe[T]) Visible() int { return len(p.bufs[p.vis]) - p.off }

// InFlight reports the total number of values buffered anywhere in the
// pipe, including those not yet visible and any not yet latched.
func (p *Pipe[T]) InFlight() int { return p.held }

// Each visits every value still held by the pipe — visible-but-unpopped,
// in-flight, and staged this cycle — in no particular order. It is a
// read-only inspection for invariant checkers and debug tooling; fn must
// not push or pop.
func (p *Pipe[T]) Each(fn func(T)) {
	for i := 0; i <= p.latency; i++ {
		b := p.bufs[(p.vis+i)%len(p.bufs)]
		if i == 0 {
			b = b[p.off:]
		}
		for _, v := range b {
			fn(v)
		}
	}
}

// Filter destructively removes every value v for which remove(v) is
// true, from every stage of the pipe — visible-but-unpopped, in-flight,
// and staged — invoking fn (if non-nil) on each removed value. It
// returns the number removed. It is the hard-fault machinery's
// wire-destruction primitive and must run between kernel steps, never
// from an actor tick. Relative order of the kept values is preserved.
func (p *Pipe[T]) Filter(remove func(T) bool, fn func(T)) int {
	removed := 0
	for i := 0; i <= p.latency; i++ {
		idx := (p.vis + i) % len(p.bufs)
		b := p.bufs[idx]
		lo := 0
		if i == 0 {
			lo = p.off
		}
		kept := lo
		for j := lo; j < len(b); j++ {
			if remove(b[j]) {
				removed++
				if fn != nil {
					fn(b[j])
				}
				continue
			}
			b[kept] = b[j]
			kept++
		}
		p.bufs[idx] = b[:kept]
	}
	p.held -= removed
	return removed
}

// latch advances the delay line by one cycle. It reports whether the pipe
// still holds values and must stay on the kernel's active-latch list; an
// all-empty pipe's latch is the identity (rotating empty buffers), so
// skipping it is exact, not an approximation.
func (p *Pipe[T]) latch() bool {
	// Undelivered visible values remain visible (the new visible buffer
	// accumulates them at its front), so a consumer that stalls does not
	// lose data.
	carryFrom := p.bufs[p.vis][p.off:]
	next := (p.vis + 1) % len(p.bufs)
	if len(carryFrom) > 0 {
		if p.off == 0 && len(p.bufs[next]) == 0 {
			// Nothing arriving and nothing consumed (a quiescent consumer
			// letting credits/NACKs pool): carry by swapping buffers, no
			// copy, no allocation, however long the consumer sleeps.
			p.bufs[next], p.bufs[p.vis] = p.bufs[p.vis], p.bufs[next]
		} else {
			merged := make([]T, 0, len(carryFrom)+len(p.bufs[next]))
			merged = append(merged, carryFrom...)
			merged = append(merged, p.bufs[next]...)
			p.bufs[next] = merged
		}
	}
	p.bufs[p.vis] = p.bufs[p.vis][:0]
	p.vis = next
	p.off = 0
	if len(p.bufs[p.vis]) > 0 {
		p.k.deliver(p.hook)
	}
	p.armed = p.held != 0
	return p.armed
}
