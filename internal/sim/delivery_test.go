package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// A marking hook with no wake sets the consumer's bit at the end of the
// cycle before values become visible — not earlier — and leaves a
// sleeping consumer asleep: the credit-wire contract. Marking is the same
// when the consumer was not opted in and nobody sleeps in the first place.
func TestDeliveryMarkWithoutWake(t *testing.T) {
	for _, optIn := range []bool{false, true} {
		var k Kernel
		s := &sleeper{}
		h := k.RegisterActor(s)
		if optIn {
			k.EnableQuiescence(h)
		}
		p := NewPipe[int](&k, 2)
		var mask uint8
		p.SetDelivery(Delivery{}.WithMark(&mask, 1<<3))
		k.Step() // sleeper ticks once and sleeps for good
		p.Push(7)
		k.Step()
		if mask != 0 {
			t.Fatalf("opted in %v: mask %#x set one cycle early", optIn, mask)
		}
		k.Step()
		if mask != 1<<3 {
			t.Fatalf("opted in %v: mask %#x after delivery, want %#x", optIn, mask, 1<<3)
		}
		k.Run(5)
		if len(s.ticks) != 1 || k.Asleep(h) != optIn {
			t.Fatalf("opted in %v: mark-only delivery woke the consumer (ticks %v)", optIn, s.ticks)
		}
		// The bit is the consumer's to clear, after draining: a delivery
		// marks once, when its values become visible, and an undrained
		// value that merely stays visible does not mark again.
		mask = 0
		k.Step()
		if mask != 0 || p.Visible() != 1 {
			t.Fatalf("opted in %v: undrained value re-marked (mask %#x, %d visible)", optIn, mask, p.Visible())
		}
		p.Push(8) // a new arrival behind the undrained one is a new delivery
		k.Run(2)
		if mask != 1<<3 || p.Visible() != 2 {
			t.Fatalf("opted in %v: second arrival left mask %#x with %d visible", optIn, mask, p.Visible())
		}
		popAll(p)
		mask = 0
		k.Run(3)
		if mask != 0 {
			t.Fatalf("opted in %v: drained pipe marked mask %#x", optIn, mask)
		}
	}
}

// Mark and wake compose in either order, and a hook attached while values
// are already visible marks at once.
func TestDeliveryComposeAndLateAttach(t *testing.T) {
	var k Kernel
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

// The awake set against the work ticks of a kernel nobody opted into: with
// several words of actors and random deliveries and timers — fixed
// offsets, a wake repeated across delivery wakes, and wakes postponed or
// dropped — the opted-in kernel's work-tick logs must equal the oracle's
// tick for tick, it must execute no other tick, and every cycle's ticks
// must run in ascending registration order.
func TestEventKernelWideBitsetMatchesQuiescent(t *testing.T) {
	const actors = 150 // three words
	var order []Handle
	build := func(optIn bool) ([][]uint64, Stats) {
		var k Kernel
		rng := rand.New(rand.NewSource(42))
		ss := make([]*sleeper, actors)
		pipes := make([]*Pipe[int], actors)
		for i := range ss {
			ss[i] = &sleeper{offset: uint64(rng.Intn(4)) * uint64(rng.Intn(200))}
			switch period := uint64(20 + rng.Intn(100)); i % 4 {
			case 1: // woken early, repeats the wake it already has
				ss[i].next = func(c uint64) uint64 { return (c/period + 1) * period }
			case 2: // woken early, postpones the wake or drops it
				ss[i].next = func(c uint64) uint64 { return (c + period) * (c & 1) }
			}
			h := k.RegisterActor(orderSpy{ss[i], Handle(i), &order})
			if optIn {
				k.EnableQuiescence(h)
			}
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
					t.Fatalf("opted in %v, cycle %d: tick order %v not ascending", optIn, c, order)
				}
			}
		}
		out := make([][]uint64, actors)
		for i, s := range ss {
			out[i] = s.ticks
		}
		return out, k.Stats()
	}
	want, _ := build(false)
	got, st := build(true)
	work := 0
	for i := range want {
		requireSameTicks(t, i, want[i], got[i])
		work += len(got[i])
	}
	if st.Ticked != uint64(work) {
		t.Fatalf("opted-in kernel executed %d ticks for %d work ticks", st.Ticked, work)
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

// The three things the timed-wake heap must get right, each one sleeper fed
// by one latency-2 pipe, checked against the same sleeper ticked every
// cycle: the work ticks agree and the opted-in kernel executes no others.
func TestTimedWakeHeap(t *testing.T) {
	// run pushes before every cycle push names, and returns the opted-in
	// sleeper's work ticks and the deepest the heap got.
	run := func(t *testing.T, mk func() *sleeper, cycles uint64, push func(c uint64) bool) ([]uint64, int) {
		var logs [2][]uint64
		deepest := 0
		for i, optIn := range []bool{false, true} {
			var k Kernel
			s := mk()
			h := k.RegisterActor(s)
			s.in = NewPipe[int](&k, 2)
			s.in.SetDelivery(Delivery{}.WithWake(h))
			if optIn {
				k.EnableQuiescence(h)
			}
			for c := uint64(0); c < cycles; c++ {
				if push(c) {
					s.in.Push(int(c))
				}
				k.Step()
				deepest = max(deepest, len(k.heap))
			}
			logs[i] = s.ticks
			if st := k.Stats(); optIn && st.Ticked != uint64(len(s.ticks)) {
				t.Fatalf("opted-in kernel executed %d ticks for work ticks %v", st.Ticked, s.ticks)
			}
		}
		requireSameTicks(t, 0, logs[0], logs[1])
		return logs[1], deepest
	}

	// A PE mid-wait for its injection slot, woken by 1 000 ejections:
	// every re-sleep repeats the wake already on the heap.
	t.Run("same wake", func(t *testing.T) {
		mk := func() *sleeper { return &sleeper{next: func(uint64) uint64 { return 5000 }} }
		ticks, deepest := run(t, mk, 5002, func(c uint64) bool { return c < 3000 && c%3 == 0 })
		if len(ticks) != 1002 || ticks[1001] != 5000 || deepest != 1 {
			t.Fatalf("%d work ticks ending %v, heap up to %d deep; want 1002 ending at 5000, 1 deep", len(ticks), ticks[len(ticks)-1:], deepest)
		}
	})
	// Woken at 12, 22 and 32, the sleeper postpones its wake from 100 to
	// 200, drops it, then declares 300: the entries for 100 and 200 pop
	// stale.
	t.Run("later or no wake", func(t *testing.T) {
		plan := map[uint64]uint64{0: 100, 12: 200, 22: 0, 32: 300}
		mk := func() *sleeper { return &sleeper{next: func(c uint64) uint64 { return plan[c] }} }
		ticks, _ := run(t, mk, 400, func(c uint64) bool { return c == 10 || c == 20 || c == 30 })
		if want := []uint64{0, 12, 22, 32, 300}; !slices.Equal(ticks, want) {
			t.Fatalf("work ticks %v, want %v", ticks, want)
		}
	})
	// Values arriving at 9 and 11 keep the sleeper awake across its wake at
	// 10, which pops onto a bit already set: one tick at 10, not two.
	t.Run("wake while awake", func(t *testing.T) {
		mk := func() *sleeper {
			return &sleeper{linger: true, next: func(c uint64) uint64 { return (c/10 + 1) * 10 }}
		}
		ticks, deepest := run(t, mk, 25, func(c uint64) bool { return c == 7 || c == 9 })
		if want := []uint64{0, 9, 10, 11, 20}; !slices.Equal(ticks, want) || deepest != 1 {
			t.Fatalf("work ticks %v, heap up to %d deep; want %v, 1 deep", ticks, deepest, want)
		}
	})
}

// An actor registered mid-run — here the 65th, which needs a second word of
// the awake set — ticks from the next Step on, opted in or not, and the
// actors already asleep keep their wakes.
func TestLateRegistrationGrowsAwakeSet(t *testing.T) {
	var logs [2][]uint64
	for i, optIn := range []bool{false, true} {
		var k Kernel
		first := make([]*sleeper, 64)
		for j := range first {
			first[j] = &sleeper{offset: 10}
			if h := k.RegisterActor(first[j]); optIn {
				k.EnableQuiescence(h)
			}
		}
		k.Run(3) // all tick at 0 and sleep until 10
		late := &sleeper{offset: 5}
		if h := k.RegisterActor(late); optIn {
			k.EnableQuiescence(h)
		}
		k.Run(20)
		logs[i] = late.ticks
		for j, s := range first {
			if want := []uint64{0, 10, 20}; !slices.Equal(s.ticks, want) {
				t.Fatalf("opted in %v: actor %d ticks %v, want %v", optIn, j, s.ticks, want)
			}
		}
		if st := k.Stats(); optIn && st.Ticked != uint64(64*3+len(late.ticks)) {
			t.Fatalf("opted-in kernel executed %d ticks, want %d", st.Ticked, 64*3+len(late.ticks))
		}
	}
	if want := []uint64{3, 8, 13, 18}; !slices.Equal(logs[0], want) || !slices.Equal(logs[1], want) {
		t.Fatalf("late actor ticks %v not opted in, %v opted in; want %v both", logs[0], logs[1], want)
	}
}
