package link

import (
	"fmt"

	"ftnoc/internal/flit"
)

// NACKWindow is the number of cycles after transmission during which a
// NACK for a flit can still arrive: 1 cycle link traversal + 1 cycle
// error checking at the receiver + 1 cycle NACK propagation (§3.1). It is
// also therefore the required depth of the retransmission buffer.
const NACKWindow = 3

// RetransBuffer is the barrel-shifter retransmission buffer of Fig. 3,
// one per virtual channel. A flit is captured when it is transmitted on
// the link; it shifts toward the front as cycles pass and is discarded
// once the NACK window has elapsed without complaint. On a NACK, the
// still-buffered flits (the corrupted one plus any sent after it) are
// drained, in order, for retransmission.
//
// Nothing shifts per cycle. Every entry carries the cycle it was sent at
// and entries sit in send order, so which of them are still inside their
// window is a comparison against the clock: the expired ones are a
// prefix, and whoever next captures into the buffer or takes entries out
// of it drops that prefix first.
type RetransBuffer struct {
	depth int
	// ring is a fixed-size circular buffer: entries live at
	// ring[(head+i)%depth] for i in [0,count).
	ring  []retransEntry
	head  int
	count int
}

type retransEntry struct {
	f    flit.Flit
	sent uint64
}

// NewRetransBuffer creates a barrel shifter of the given depth. The HBH
// scheme needs exactly NACKWindow slots; the duplicate-buffer option of
// §4.5 doubles that.
func NewRetransBuffer(depth int) *RetransBuffer {
	if depth < 1 {
		panic("link: retransmission buffer depth must be >= 1")
	}
	return &RetransBuffer{depth: depth, ring: make([]retransEntry, depth)}
}

// slot maps a logical position (0 = oldest) to its ring index. Positions
// stay below 2*depth, so one conditional subtraction replaces the modulo.
func (rb *RetransBuffer) slot(i int) int {
	if i += rb.head; i >= rb.depth {
		i -= rb.depth
	}
	return i
}

// Depth returns the configured slot count.
func (rb *RetransBuffer) Depth() int { return rb.depth }

// Len returns the number of occupied slots.
func (rb *RetransBuffer) Len() int { return rb.count }

// Empty reports whether no flit is retained.
func (rb *RetransBuffer) Empty() bool { return rb.count == 0 }

// Capture stores a copy of a flit transmitted at the given cycle, first
// freeing the slots whose window has elapsed by then (Expire). It panics
// if the shifter is still full: the flow-control invariant is that at
// most NACKWindow flits can be inside their NACK window at once, so
// overflow means the sender outran its own window.
func (rb *RetransBuffer) Capture(f flit.Flit, cycle uint64) { rb.capture(&f, cycle) }

// capture is Capture reading the flit through a pointer. It returns the
// ring entry's copy — the flit's resting place in the shifter — good
// until the entry expires or is drained.
func (rb *RetransBuffer) capture(f *flit.Flit, cycle uint64) *flit.Flit {
	rb.Expire(cycle)
	if rb.count >= rb.depth {
		panic(fmt.Sprintf("link: retransmission buffer overflow (depth %d)", rb.depth))
	}
	e := &rb.ring[rb.slot(rb.count)]
	e.f, e.sent = *f, cycle
	rb.count++
	return &e.f
}

// Expire discards entries whose NACK window has elapsed: a flit sent at
// cycle s has its NACK, if any, visible at the transmitter at exactly
// s+NACKWindow, so once that cycle's NACKs have been processed (a sender
// ingests NACKs before it sends) the slot is free — the barrel-shift to
// the front and off the end. Freeing at s+NACKWindow is what lets a
// 3-deep shifter sustain one flit per cycle. It returns the number of
// slots freed.
func (rb *RetransBuffer) Expire(cycle uint64) int { return rb.settle(cycle + 1) }

// live reports whether an entry sent at cycle sent is still inside its
// NACK window at clock: through cycle sent+NACKWindow, on which its NACK
// can still arrive, and gone at the boundary after it. That is what
// expiring every cycle leaves behind.
func live(sent, clock uint64) bool { return sent+NACKWindow >= clock }

// settle drops the entries no longer live at clock and returns how many
// went.
func (rb *RetransBuffer) settle(clock uint64) int {
	n := 0
	for rb.count > 0 && !live(rb.ring[rb.head].sent, clock) {
		rb.head = rb.slot(1)
		rb.count--
		n++
	}
	return n
}

// expired counts the entries settle(clock) would drop, dropping nothing.
func (rb *RetransBuffer) expired(clock uint64) int {
	n := 0
	for n < rb.count && !live(rb.ring[rb.slot(n)].sent, clock) {
		n++
	}
	return n
}

// AppendDrain removes the retained flits and appends them to dst, oldest
// first; the caller retransmits them in order (re-capturing each as it
// goes back out on the wire).
func (rb *RetransBuffer) AppendDrain(dst []flit.Flit) []flit.Flit {
	for i := 0; i < rb.count; i++ {
		dst = append(dst, rb.ring[rb.slot(i)].f)
	}
	rb.head, rb.count = 0, 0
	return dst
}

// Snapshot returns copies of the retained flits, oldest first; nil when
// the buffer is empty.
func (rb *RetransBuffer) Snapshot() []flit.Flit {
	if rb.count == 0 {
		return nil
	}
	out := make([]flit.Flit, 0, rb.count)
	for i := 0; i < rb.count; i++ {
		out = append(out, rb.ring[rb.slot(i)].f)
	}
	return out
}
