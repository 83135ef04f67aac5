package link

import (
	"ftnoc/internal/fault"
	"ftnoc/internal/flit"
	"ftnoc/internal/sim"
	"ftnoc/internal/stats"
)

// Credit is the backpressure token returned when a buffer slot frees.
type Credit struct {
	VC uint8
}

// NACKKind distinguishes the reasons a NACK handshake fires.
type NACKKind uint8

// NACK kinds.
const (
	// NACKLinkError asks the transmitter to replay its retransmission
	// buffer for a VC after an uncorrectable link error (§3.1).
	NACKLinkError NACKKind = iota + 1
	// NACKIgnore tells neighbors to discard the previous cycle's
	// transmission after an AC-detected allocation error (§4.1, §4.3).
	NACKIgnore
	// NACKMisroute reports a deterministic-routing consistency violation
	// detected at the receiving router (§4.2); the sender must re-route.
	NACKMisroute
	// NACKRecoveryOn tells the transmitter the receiving node has entered
	// deadlock-recovery mode: no NEW wormholes may be opened onto this
	// channel until NACKRecoveryOff, so fresh packets cannot consume the
	// buffer slack the recovery creates (§3.2.1: "no new packets are
	// allowed to enter the transmission buffers that are involved in the
	// deadlock recovery").
	NACKRecoveryOn
	// NACKRecoveryOff lifts the NACKRecoveryOn restriction.
	NACKRecoveryOff
)

// NACK is the error-handshake message travelling opposite to the flits.
type NACK struct {
	VC   uint8
	Kind NACKKind
}

// Latencies of the three wire groups, in cycles. Flits take one cycle
// (§2.2, single-cycle links). Credits take one cycle. NACKs become
// visible to the transmitter two cycles after the flawed flit arrived:
// one cycle of error checking plus one cycle of signal propagation —
// which, with the one-cycle link, gives the paper's 3-cycle NACK window.
const (
	FlitLatency   = 1
	CreditLatency = 1
	NACKLatency   = 2
)

// creditVC is one virtual channel's share of the credit wire. A credit
// carries nothing but its VC, so the wire is a pair of counters instead
// of a queue: next counts the credits sent during cycle nextAt-1, which
// become visible at nextAt, and ready those visible already and not yet
// taken. CreditLatency is one cycle, so whatever next holds when a later
// cycle's first credit arrives is visible by then and moves to ready —
// two slots are exact. Sending is one increment; nothing is queued,
// delivered or marked, and the transmitter picks the visible credits up
// the next time it reads its counter (takeCredits).
type creditVC struct {
	ready  int32
	next   int32
	nextAt uint64
}

// The two-slot credit wire is exact only for a one-cycle latency.
var _ [1]struct{} = [CreditLatency]struct{}{}

// Channel is one direction of an inter-router (or PE-router) connection:
// a flit wire forward, and credit + NACK wires backward. The wires live
// inside the channel's own slot of its slab (NewChannels), so polling an
// idle one touches no other memory; a Channel must not be copied.
type Channel struct {
	flits sim.Pipe[flit.Flit]
	nacks sim.Pipe[NACK]
	k     *sim.Kernel
	// out, while set (Outbox.Open), takes what the producers push on the
	// three wires until the outbox commits it.
	out *Outbox

	// cred is the credit wire, one entry per VC (see creditVC). It windows
	// fewVCs until a channel carries more VCs than that, so the usual
	// channel allocates nothing for it. credOut backs RecvCredits.
	cred    []creditVC
	fewVCs  [4]creditVC
	credOut []Credit

	injector fault.Corruptor // nil for fault-free channels
	// events and counters are what the bare-wire methods (Send, SendCredit,
	// SendNACK) charge; a Transmitter or Receiver charges its own.
	events   *stats.Events
	counters *fault.Counters
	local    bool // PE<->router channel: no fault injection, separate energy class

	// Handshake-line fault modelling (§4.6).
	hsRate float64
	hsTMR  bool
	hsRNG  *sim.RNG
}

// SetHandshakeFaults enables transient faults on the backward NACK wires
// at the given per-signal rate. With tmr true the lines are triplicated
// and voted (§4.6), masking every single fault; without it a faulted
// NACK is lost in transit.
func (c *Channel) SetHandshakeFaults(rate float64, tmr bool, rng *sim.RNG) {
	if rate < 0 || rate > 1 {
		panic("link: handshake fault rate must be in [0,1]")
	}
	c.hsRate = rate
	c.hsTMR = tmr
	c.hsRNG = rng
}

// NewChannel wires a channel into kernel k. injector may be nil for a
// fault-free link (e.g. the PE-to-router channel, which the paper does
// not inject faults into). events and counters must be non-nil.
func NewChannel(k *sim.Kernel, injector fault.Corruptor, local bool, events *stats.Events, counters *fault.Counters) *Channel {
	c := &NewChannels(nil, k, 1, local, events, counters)[0]
	c.injector = injector
	return c
}

// NewChannels wires n fault-free channels into kernel k in two slabs
// from s (sim.Make): the channels are one slice, and every flit wire's
// first ring is a window of one arena (sim.InitRings). SetCorruptor gives
// a channel its fault injector. The channels must not be copied.
func NewChannels(s *sim.Slabs, k *sim.Kernel, n int, local bool, events *stats.Events, counters *fault.Counters) []Channel {
	cs := sim.Make[Channel](s, n)
	for i := range cs {
		c := &cs[i]
		c.k, c.events, c.counters, c.local = k, events, counters, local
		c.flits.Init(k, FlitLatency)
		c.nacks.Init(k, NACKLatency)
	}
	sim.InitRings(s, n, func(i int) *sim.Pipe[flit.Flit] { return &cs[i].flits })
	return cs
}

// SetCorruptor installs the link's fault injector; nil makes it
// fault-free.
func (c *Channel) SetCorruptor(injector fault.Corruptor) { c.injector = injector }

// fitCredits sizes the credit wire for at least vcs virtual channels,
// keeping what it holds.
func (c *Channel) fitCredits(vcs int) {
	switch {
	case vcs <= len(c.cred):
	case vcs <= len(c.fewVCs):
		c.cred = c.fewVCs[:vcs]
	default:
		c.cred = append(make([]creditVC, 0, vcs), c.cred...)[:vcs]
	}
}

// Send puts a flit on the wire, applying fault injection. It returns the
// injection outcome, which the transmitter records but must NOT act on —
// only the receiver's ECC unit may observe corruption.
func (c *Channel) Send(f flit.Flit) fault.LinkOutcome { return c.send(&f, c.events, c.counters) }

// send is Send reading the flit through a pointer and charging the given
// accounts: *f is copied once, into the wire's own slot (or the outbox's),
// and it is that slot the injector corrupts — the caller's flit stays
// clean, and the slot already lives on the heap, so handing its address
// through the Corruptor interface costs nothing.
func (c *Channel) send(f *flit.Flit, events *stats.Events, counters *fault.Counters) fault.LinkOutcome {
	var w *flit.Flit
	if o := c.out; o != nil {
		o.flits = append(o.flits, *f)
		w = &o.flits[len(o.flits)-1]
	} else {
		w = c.flits.PushSlot()
		*w = *f
	}
	out := fault.NoError
	if c.injector != nil {
		out = c.injector.Corrupt(w)
	}
	if out != fault.NoError {
		counters.AddInjected(fault.LinkError)
	}
	w.Hops++
	if c.local {
		events.LocalTraversals++
	} else {
		events.LinkTraversals++
	}
	return out
}

// Recv removes the flit (at most one per cycle) visible on the wire.
func (c *Channel) Recv() (flit.Flit, bool) { return c.flits.Pop() }

// SendCredit returns a buffer slot to the transmitter.
func (c *Channel) SendCredit(vc uint8) { c.sendCredit(vc, c.events) }

// sendCredit is SendCredit charging events.
func (c *Channel) sendCredit(vc uint8, events *stats.Events) {
	events.Credits++
	if o := c.out; o != nil {
		o.credits = append(o.credits, vc)
		return
	}
	c.addCredit(vc)
}

// addCredit puts one credit on the wire, visible next cycle.
func (c *Channel) addCredit(vc uint8) {
	if int(vc) >= len(c.cred) {
		c.fitCredits(int(vc) + 1)
	}
	cv := &c.cred[vc]
	if at := c.k.Cycle() + CreditLatency; cv.nextAt != at {
		cv.ready += cv.next // an earlier cycle's credits: visible by now
		cv.next, cv.nextAt = 0, at
	}
	cv.next++
}

// takeCredits removes and returns the credits visible on vc's wire this
// cycle. vc must be one the wire was sized for.
func (c *Channel) takeCredits(vc int) int {
	cv := &c.cred[vc]
	n := cv.ready
	cv.ready = 0
	if cv.next != 0 && cv.nextAt <= c.k.Cycle() {
		n += cv.next
		cv.next = 0
	}
	return int(n)
}

// RecvCredits drains all credits visible this cycle, grouped by VC. It is
// the bare-wire view for an end with no Transmitter; a Transmitter takes
// its credits itself, as it reads its counters. The returned slice is
// valid until the next RecvCredits.
func (c *Channel) RecvCredits() []Credit {
	out := c.credOut[:0]
	for vc := range c.cred {
		for n := c.takeCredits(vc); n > 0; n-- {
			out = append(out, Credit{VC: uint8(vc)})
		}
	}
	c.credOut = out
	return out
}

// SendNACK raises the error handshake toward the transmitter.
func (c *Channel) SendNACK(vc uint8, kind NACKKind) { c.sendNACK(vc, kind, c.events, c.counters) }

// sendNACK is SendNACK charging the given accounts.
func (c *Channel) sendNACK(vc uint8, kind NACKKind, events *stats.Events, counters *fault.Counters) {
	events.NACKs++
	counters.NACKs++
	if o := c.out; o != nil {
		o.nacks = append(o.nacks, NACK{VC: vc, Kind: kind})
		return
	}
	c.nacks.Push(NACK{VC: vc, Kind: kind})
}

// popNACK removes the next NACK visible this cycle and returns its wire
// slot (sim.Pipe.PopSlot), nil once none is left, applying handshake-line
// fault injection charged to counters: a faulted signal is masked by the
// TMR voter when enabled, or lost otherwise.
func (c *Channel) popNACK(counters *fault.Counters) *NACK {
	for {
		n := c.nacks.PopSlot()
		if n == nil || c.hsRate == 0 || !c.hsRNG.Bool(c.hsRate) {
			return n
		}
		counters.AddInjected(fault.HandshakeError)
		if c.hsTMR {
			// Two clean copies out-vote the faulted line.
			counters.AddCorrected(fault.HandshakeError)
			return n
		}
		counters.AddUndetected(fault.HandshakeError)
	}
}

// InFlightData counts the data flits anywhere in the forward wire that
// ride the given VC. Control flits (probes/activations) bypass credits
// and are excluded. Invariant-checker inspection.
func (c *Channel) InFlightData(vc int) int {
	n := 0
	c.flits.Each(func(f flit.Flit) {
		if f.IsData() && int(f.VC) == vc {
			n++
		}
	})
	return n
}

// InFlightCredits counts the credits anywhere in the backward credit wire
// for the given VC, visible or not, without taking them.
// Invariant-checker inspection.
func (c *Channel) InFlightCredits(vc int) int {
	if vc < 0 || vc >= len(c.cred) {
		return 0
	}
	return int(c.cred[vc].ready + c.cred[vc].next)
}

// EachDataFlit visits every data flit anywhere in the forward wire.
// Invariant-checker inspection; fn must not send or receive.
func (c *Channel) EachDataFlit(fn func(flit.Flit)) {
	c.flits.Each(func(f flit.Flit) {
		if f.IsData() {
			fn(f)
		}
	})
}

// DestroyData destructively removes in-flight forward traffic at a
// hard-fault boundary, pushing one credit back toward the transmitter
// per destroyed data flit so per-VC credit conservation survives the
// kill. With vc >= 0 only that virtual channel's data flits are
// destroyed (a live channel carrying one segment of a killed worm);
// with vc < 0 every data AND control flit goes (the channel itself is
// dead). fn (if non-nil) observes each destroyed data flit. This must
// run between kernel steps. The credit and NACK wires stay functional:
// the kill protocol itself rides them.
func (c *Channel) DestroyData(vc int, fn func(flit.Flit)) int {
	n := 0
	c.flits.Filter(func(f flit.Flit) bool {
		return vc < 0 || (f.IsData() && int(f.VC) == vc)
	}, func(f flit.Flit) {
		if !f.IsData() {
			return
		}
		n++
		c.addCredit(f.VC)
		if fn != nil {
			fn(f)
		}
	})
	return n
}

// DropNACKs discards every pending backward NACK handshake. Applied to a
// dead channel so the transmitter never replays onto it.
func (c *Channel) DropNACKs() { c.nacks.Filter(func(NACK) bool { return true }, nil) }

// The four methods below install the channel's delivery hooks (see
// sim.Delivery). Each end does its own half: the component that polls an
// end gives it a mask bit (MarkRx / MarkTx — a router does this when the
// end is attached to one of its ports), and whoever registers that
// component with a kernel adds the wake (WakeRx / WakeTx). A channel with
// no hooks behaves as a bare set of wires: nothing is marked, nobody is
// woken, and both ends must be polled every cycle.

// MarkRx makes flits becoming visible to the receiver set bit in *mask.
func (c *Channel) MarkRx(mask *uint8, bit uint8) {
	c.flits.SetDelivery(c.flits.Delivery().WithMark(mask, bit))
}

// MarkTx makes a NACK becoming visible to the transmitter set bit in
// *mask. Credits mark nothing: they are counters the transmitter reads
// when it next needs one (see creditVC), not arrivals to be polled for.
func (c *Channel) MarkTx(mask *uint8, bit uint8) {
	c.nacks.SetDelivery(c.nacks.Delivery().WithMark(mask, bit))
}

// WakeRx wakes actor h whenever flits become visible to the receiver.
func (c *Channel) WakeRx(h sim.Handle) { c.flits.SetDelivery(c.flits.Delivery().WithWake(h)) }

// WakeTx wakes actor h — the transmitter's owner — whenever a NACK
// becomes visible. It is the only wake the backward side of a link
// needs. Credits never wake: they accumulate in their counters and are
// folded in when the owner next reads one, before any decision depends on
// them. Occupied retransmission shifters need no wake either: an entry's
// NACK window closes by the clock, whether or not the owner ticks (see
// Transmitter). What the owner must act on, on its exact visibility
// cycle, is a NACK — a link-error NACK draining the shifter into the
// replay queue, a neighbour's misroute report, recovery on/off — and the
// owner may be asleep with in-window entries when one arrives.
func (c *Channel) WakeTx(h sim.Handle) { c.nacks.SetDelivery(c.nacks.Delivery().WithWake(h)) }

// VisibleFlits and VisibleNACKs count what each end would see if it
// polled now: flits on the forward wire, NACKs on the backward one.
// Invariant-checker inspection (mask soundness).
func (c *Channel) VisibleFlits() int { return c.flits.Visible() }

// VisibleNACKs: see VisibleFlits.
func (c *Channel) VisibleNACKs() int { return c.nacks.Visible() }

// Outbox holds what the producers of a cut channel — one whose two ends
// tick concurrently, in different shards — pushed during one actor
// phase: the transmitter's flits, the receiver's NACKs and credits.
// While it is open the channel's wires are the consumer's alone during
// the phase, and Commit, at the barrier after it, pushes the held values
// in the order they were sent. Nothing a consumer can see changes: a
// value is never visible before the cycle after its push, and Commit runs
// inside the push's cycle.
type Outbox struct {
	ch      *Channel
	flits   []flit.Flit
	nacks   []NACK
	credits []uint8 // the VC of each credit
	// First backing arrays, enough for one step's traffic on one wire.
	flitBuf   [2]flit.Flit
	nackBuf   [4]NACK
	creditBuf [8]uint8
}

// NewOutboxes makes one closed outbox per channel, in one slab from s
// (sim.Make).
func NewOutboxes(s *sim.Slabs, chans []*Channel) []Outbox {
	os := sim.Make[Outbox](s, len(chans))
	for i, c := range chans {
		o := &os[i]
		o.ch = c
		o.flits, o.nacks, o.credits = o.flitBuf[:0], o.nackBuf[:0], o.creditBuf[:0]
	}
	return os
}

// Open routes the channel's pushes into the outbox.
func (o *Outbox) Open() { o.ch.out = o }

// Close commits what the outbox holds and routes pushes to the wires
// again.
func (o *Outbox) Close() {
	o.Commit()
	o.ch.out = nil
}

// Commit pushes what the outbox holds onto the channel's wires.
func (o *Outbox) Commit() {
	c := o.ch
	for i := range o.flits {
		*c.flits.PushSlot() = o.flits[i]
	}
	for _, n := range o.nacks {
		c.nacks.Push(n)
	}
	for _, vc := range o.credits {
		c.addCredit(vc)
	}
	o.flits, o.nacks, o.credits = o.flits[:0], o.nacks[:0], o.credits[:0]
}
