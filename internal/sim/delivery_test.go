package sim

import (
	"math/rand"
	"testing"
)

// A marking hook with no wake sets the consumer's bit at the end of the
// cycle before values become visible — not earlier — and leaves a
// sleeping consumer asleep: the credit-wire contract. Marking is the same
// under the naive schedule, where nobody sleeps in the first place.
func TestDeliveryMarkWithoutWake(t *testing.T) {
	for _, mode := range []Mode{ModeNaive, ModeEvent} {
		var k Kernel
		k.SetMode(mode)
		s := &sleeper{}
		h := k.RegisterActor(s)
		k.EnableQuiescence(h)
		p := NewPipe[int](&k, 2)
		var mask uint8
		p.SetDelivery(Delivery{}.WithMark(&mask, 1<<3))
		k.Step() // sleeper ticks once and sleeps for good
		p.Push(7)
		k.Step()
		if mask != 0 {
			t.Fatalf("mode %v: mask %#x set one cycle early", mode, mask)
		}
		k.Step()
		if mask != 1<<3 {
			t.Fatalf("mode %v: mask %#x after delivery, want %#x", mode, mask, 1<<3)
		}
		k.Run(5)
		if len(s.ticks) != 1 || k.Asleep(h) != (mode == ModeEvent) {
			t.Fatalf("mode %v: mark-only delivery woke the consumer (ticks %v)", mode, s.ticks)
		}
		// The bit is the consumer's to clear, after draining: a delivery
		// marks once, when its values become visible, and an undrained
		// value that merely stays visible does not mark again.
		mask = 0
		k.Step()
		if mask != 0 || p.Visible() != 1 {
			t.Fatalf("mode %v: undrained value re-marked (mask %#x, %d visible)", mode, mask, p.Visible())
		}
		p.Push(8) // a new arrival behind the undrained one is a new delivery
		k.Run(2)
		if mask != 1<<3 || p.Visible() != 2 {
			t.Fatalf("mode %v: second arrival left mask %#x with %d visible", mode, mask, p.Visible())
		}
		p.PopAll()
		mask = 0
		k.Run(3)
		if mask != 0 {
			t.Fatalf("mode %v: drained pipe marked mask %#x", mode, mask)
		}
	}
}

// Mark and wake compose in either order, and a hook attached while values
// are already visible marks at once.
func TestDeliveryComposeAndLateAttach(t *testing.T) {
	var k Kernel
	k.SetMode(ModeEvent)
	s := &sleeper{}
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	p := NewPipe[int](&k, 1)
	s.in = p
	var mask uint8
	p.SetDelivery(p.Delivery().WithWake(h))
	p.SetDelivery(p.Delivery().WithMark(&mask, 1))
	k.Step()
	p.Push(1)
	k.Step() // delivers for the next cycle: mark + wake
	if mask != 1 {
		t.Fatalf("mask %#x, want 1", mask)
	}
	k.Step()
	if want := []uint64{0, 2}; len(s.ticks) != 2 || s.ticks[1] != want[1] {
		t.Fatalf("ticks %v, want %v", s.ticks, want)
	}

	q := NewPipe[int](&k, 1)
	q.Push(9)
	k.Step()
	var late uint8
	q.SetDelivery(Delivery{}.WithMark(&late, 4))
	if late != 4 {
		t.Fatalf("late attach over a visible value left mask %#x, want 4", late)
	}
}

// The calendar ring is a bitset per cycle: with several words of actors
// and random deliveries and timers, the event kernel's work-tick logs must
// equal the naive oracle's tick for tick, it must execute no other tick,
// and every cycle's ticks must run in ascending registration order.
func TestEventKernelWideBitsetMatchesQuiescent(t *testing.T) {
	const actors = 150 // three words
	var order []Handle
	build := func(mode Mode) ([][]uint64, Stats) {
		var k Kernel
		k.SetMode(mode)
		rng := rand.New(rand.NewSource(42))
		ss := make([]*sleeper, actors)
		pipes := make([]*Pipe[int], actors)
		for i := range ss {
			ss[i] = &sleeper{offset: uint64(rng.Intn(4)) * uint64(rng.Intn(200))}
			h := k.RegisterActor(orderSpy{ss[i], Handle(i), &order})
			k.EnableQuiescence(h)
			pipes[i] = NewPipe[int](&k, 1+rng.Intn(2))
			ss[i].in = pipes[i]
			pipes[i].SetDelivery(Delivery{}.WithWake(h))
		}
		for c := 0; c < 700; c++ {
			for n := rng.Intn(4); n > 0; n-- {
				pipes[rng.Intn(actors)].Push(c)
			}
			order = order[:0]
			k.Step()
			for i := 1; i < len(order); i++ {
				if order[i] <= order[i-1] {
					t.Fatalf("mode %v cycle %d: tick order %v not ascending", mode, c, order)
				}
			}
		}
		out := make([][]uint64, actors)
		for i, s := range ss {
			out[i] = s.ticks
		}
		return out, k.Stats()
	}
	want, _ := build(ModeNaive)
	got, st := build(ModeEvent)
	work := 0
	for i := range want {
		requireSameTicks(t, i, want[i], got[i])
		work += len(got[i])
	}
	if st.Ticked != uint64(work) {
		t.Fatalf("event kernel executed %d ticks for %d work ticks", st.Ticked, work)
	}
}

// orderSpy records the handle of each tick so a test can check intra-cycle
// order; quiescence is the wrapped sleeper's.
type orderSpy struct {
	*sleeper
	h     Handle
	order *[]Handle
}

func (o orderSpy) Tick(c uint64) {
	*o.order = append(*o.order, o.h)
	o.sleeper.Tick(c)
}

// An actor registered after the event kernel has started — here the 65th,
// which needs a second bitset word — is scheduled one cycle out, and bits
// already in the ring survive the re-layout.
func TestEventKernelLateRegistrationGrowsRing(t *testing.T) {
	var k Kernel
	k.SetMode(ModeEvent)
	first := make([]*sleeper, 64)
	for i := range first {
		first[i] = &sleeper{offset: 10}
		k.EnableQuiescence(k.RegisterActor(first[i]))
	}
	k.Run(3) // all tick at 0 and sleep until 10
	late := &sleeper{offset: 5}
	k.EnableQuiescence(k.RegisterActor(late))
	k.Run(20)
	if len(late.ticks) < 2 || late.ticks[0] != 4 || late.ticks[1] != 9 {
		t.Fatalf("late actor ticks %v, want [4 9 ...]", late.ticks)
	}
	for i, s := range first {
		if len(s.ticks) < 3 || s.ticks[1] != 10 || s.ticks[2] != 20 {
			t.Fatalf("actor %d ticks %v, want [0 10 20]", i, s.ticks)
		}
	}
}
