package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// latchModel is the wire as it was before values carried stamps: one
// buffer per stage, rotated by a latch every cycle, with undrained values
// merged ahead of the arrivals. stages[0] is visible, stages[i] becomes
// visible after i latches, the last one collects the cycle's pushes.
type latchModel struct{ stages [][]int }

func (m *latchModel) push(v int) {
	last := len(m.stages) - 1
	m.stages[last] = append(m.stages[last], v)
}

func (m *latchModel) pop() (int, bool) {
	if len(m.stages[0]) == 0 {
		return 0, false
	}
	v := m.stages[0][0]
	m.stages[0] = m.stages[0][1:]
	return v, true
}

func (m *latchModel) popAll() []int {
	out := m.stages[0]
	m.stages[0] = nil
	return out
}

func (m *latchModel) filter(remove func(int) bool) (removed int) {
	for i, s := range m.stages {
		kept := slices.DeleteFunc(slices.Clone(s), remove)
		removed += len(s) - len(kept)
		m.stages[i] = kept
	}
	return removed
}

func (m *latchModel) inFlight() (n int) {
	for _, s := range m.stages {
		n += len(s)
	}
	return n
}

// latch advances one cycle and reports whether values became visible.
func (m *latchModel) latch() bool {
	arrived := len(m.stages[1]) > 0
	m.stages[1] = append(slices.Clone(m.stages[0]), m.stages[1]...)
	m.stages = append(m.stages[1:], nil)
	return arrived
}

// tickLog is a Quiescer that always goes quiet and logs its ticks, so
// once opted in the log is cycle 0 plus exactly the wake cycles.
type tickLog struct{ ticks []uint64 }

func (l *tickLog) Tick(c uint64)                   { l.ticks = append(l.ticks, c) }
func (l *tickLog) Quiescent(uint64) (bool, uint64) { return true, 0 }

// The stamped pipe against the latch model under one random sequence of
// pushes, pops, drains, filters and steps — pushes and pops by value and
// through the slot-returning forms alike: the same values visible on the
// same cycles, the same counts, a mark exactly when the model's latch
// brings arrivals, and (consumer opted in, mode1) a consumer tick exactly
// one cycle after each such latch. A popped slot must keep its value until
// the next push, however the ring grew before the pop.
func TestPipeMatchesLatchModel(t *testing.T) {
	for mode, optIn := range []bool{false, true} {
		for latency := 1; latency <= 3; latency++ {
			for seed := int64(1); seed <= 20; seed++ {
				t.Run(fmt.Sprintf("mode%d/lat%d/seed%d", mode, latency, seed), func(t *testing.T) {
					matchLatchModel(t, optIn, latency, seed)
				})
			}
		}
	}
}

func matchLatchModel(t *testing.T, optIn bool, latency int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var k Kernel
	consumer := &tickLog{}
	h := k.RegisterActor(consumer)
	if optIn {
		k.EnableQuiescence(h)
	}
	p := NewPipe[int](&k, latency)
	var mask uint8
	p.SetDelivery(Delivery{}.WithMark(&mask, 1).WithWake(h))
	m := &latchModel{stages: make([][]int, latency+1)}
	wantTicks := []uint64{0}
	next := 0
	var popped *int // the slot the last PopSlot handed out, while it must hold
	poppedVal := 0
	for c := uint64(0); c < 300; c++ {
		for ops := rng.Intn(4); ops > 0; ops-- {
			switch op := rng.Intn(10); op {
			case 0, 1, 2, 3: // a burst deep enough to grow the ring now and then
				for n := rng.Intn(4) * rng.Intn(4); n >= 0; n-- {
					if op == 3 {
						*p.PushSlot() = next
					} else {
						p.Push(next)
					}
					popped = nil // the push was free to reuse the slot
					m.push(next)
					next++
				}
			case 4, 5:
				gv, gok := p.Pop()
				wv, wok := m.pop()
				if gv != wv || gok != wok {
					t.Fatalf("cycle %d: Pop = %d,%v, model %d,%v", c, gv, gok, wv, wok)
				}
			case 8, 9:
				slot := p.PopSlot()
				wv, wok := m.pop()
				if (slot != nil) != wok || wok && *slot != wv {
					t.Fatalf("cycle %d: PopSlot = %v, model %d,%v", c, slot, wv, wok)
				}
				if slot != nil {
					popped, poppedVal = slot, wv
				}
			case 6:
				if got, want := popAll(p), m.popAll(); !slices.Equal(got, want) {
					t.Fatalf("cycle %d: popped %v, model %v", c, got, want)
				}
			case 7:
				popped = nil // Filter runs between steps, when nobody holds a slot
				div := 2 + rng.Intn(3)
				remove := func(v int) bool { return v%div == 0 }
				if got, want := p.Filter(remove, nil), m.filter(remove); got != want {
					t.Fatalf("cycle %d: Filter removed %d, model %d", c, got, want)
				}
			}
			if p.Visible() != len(m.stages[0]) || p.InFlight() != m.inFlight() || p.Empty() != (len(m.stages[0]) == 0) {
				t.Fatalf("cycle %d: Visible %d InFlight %d Empty %v, model %d %d",
					c, p.Visible(), p.InFlight(), p.Empty(), len(m.stages[0]), m.inFlight())
			}
			if v, ok := p.Peek(); ok && v != m.stages[0][0] {
				t.Fatalf("cycle %d: Peek = %d, model %d", c, v, m.stages[0][0])
			}
			for i, want := range m.stages[0] {
				if slot := p.PeekSlot(i); slot == nil || *slot != want {
					t.Fatalf("cycle %d: PeekSlot(%d) = %v, model %d", c, i, slot, want)
				}
			}
			if slot := p.PeekSlot(len(m.stages[0])); slot != nil {
				t.Fatalf("cycle %d: PeekSlot past the %d visible values = %d", c, len(m.stages[0]), *slot)
			}
			if popped != nil && *popped != poppedVal {
				t.Fatalf("cycle %d: popped slot reads %d before the next push, held %d", c, *popped, poppedVal)
			}
		}
		mask = 0
		k.Step()
		arrived := m.latch()
		if (mask != 0) != arrived {
			t.Fatalf("cycle %d: mask %#x after the step, model arrivals %v", c, mask, arrived)
		}
		if arrived {
			wantTicks = append(wantTicks, c+1)
		}
	}
	var held []int
	p.Each(func(v int) { held = append(held, v) })
	if want := slices.Concat(m.stages...); !slices.Equal(held, want) {
		t.Fatalf("Each saw %v, model holds %v", held, want)
	}
	k.Step() // runs the wake the last latch may have asked for
	if optIn && !slices.Equal(consumer.ticks, wantTicks) {
		t.Fatalf("consumer ticked at %v, want %v", consumer.ticks, wantTicks)
	}
}

// A producer registered before its consumer pushes while the consumer is
// still due this very cycle. The consumer then ticks, sees nothing yet
// and declares itself quiet; it must still tick on the arrival cycle. A
// wake requested at Push time would be undone (the consumer clears its own
// awake bit as it goes quiet) and the arrival slept through.
func TestDeliveryWakesConsumerDueTheSameCycle(t *testing.T) {
	var k Kernel
	var p *Pipe[int]
	k.Register(ActorFunc(func(c uint64) {
		if c == 5 {
			p.Push(1)
		}
	}))
	s := &sleeper{offset: 5} // ticks at 0 and 5, quiet after each
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	p = NewPipe[int](&k, 1)
	s.in = p
	p.SetDelivery(Delivery{}.WithWake(h))
	k.Run(9)
	if want := []uint64{0, 5, 6}; !slices.Equal(s.ticks, want) {
		t.Fatalf("consumer worked at %v, want %v", s.ticks, want)
	}
	if p.InFlight() != 0 {
		t.Fatal("the arrival was never drained")
	}
}

// A hook installed while values are in flight but not yet visible does
// not mark early, and delivers (mark and wake) when they become visible.
func TestSetDeliveryOverInFlightValues(t *testing.T) {
	var k Kernel
	s := &sleeper{}
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	p := NewPipe[int](&k, 3)
	s.in = p
	k.Step()
	p.Push(1) // visible at cycle 4
	k.Step()
	var mask uint8
	p.SetDelivery(Delivery{}.WithMark(&mask, 2).WithWake(h))
	if mask != 0 {
		t.Fatalf("hook over an in-flight value marked at once (mask %#x)", mask)
	}
	k.Step()
	if mask != 0 {
		t.Fatalf("mask %#x set a cycle early", mask)
	}
	k.Step()
	if mask != 2 {
		t.Fatalf("mask %#x at the end of the cycle before visibility, want 2", mask)
	}
	k.Run(3)
	if want := []uint64{0, 4}; !slices.Equal(s.ticks, want) {
		t.Fatalf("consumer worked at %v, want %v", s.ticks, want)
	}
}

// Values pool behind a sleeping mark-only consumer: the ring wraps, then
// grows past its first allocation, and keeps every value in order; once
// grown, refilling it to the same depth allocates nothing.
func TestPipeRingGrowsWhileConsumerSleeps(t *testing.T) {
	var k Kernel
	s := &sleeper{}
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	p := NewPipe[int](&k, 1)
	var mask uint8
	p.SetDelivery(Delivery{}.WithMark(&mask, 1))
	fill := func(from int) {
		for v := from; v < from+3; v++ { // move the head off index 0 first
			p.Push(v)
		}
		k.Step()
		for v := from; v < from+3; v++ {
			if got, ok := p.Pop(); !ok || got != v {
				t.Fatalf("Pop = %d,%v, want %d", got, ok, v)
			}
		}
		for v := from + 3; v < from+40; v++ {
			p.Push(v)
			if v%5 == 0 {
				k.Step()
			}
		}
		k.Step()
	}
	fill(0)
	if p.InFlight() != 37 || p.Visible() != 37 || mask != 1 {
		t.Fatalf("InFlight %d Visible %d mask %#x, want 37 37 0x1", p.InFlight(), p.Visible(), mask)
	}
	if len(s.ticks) != 1 || !k.Asleep(h) {
		t.Fatalf("mark-only deliveries woke the consumer (ticks %v)", s.ticks)
	}
	for i, v := range popAll(p) {
		if v != i+3 {
			t.Fatalf("value %d after growth = %d, want %d", i, v, i+3)
		}
	}
	from := 100
	if allocs := testing.AllocsPerRun(10, func() {
		fill(from)
		for _, ok := p.Pop(); ok; _, ok = p.Pop() {
		}
		from += 100
	}); allocs != 0 {
		t.Fatalf("refilling a grown ring allocated %.0f times per run", allocs)
	}
}

// A pipe longer than the kernel's due ring, created while other pipes
// have deliveries queued, re-lays the ring without losing or moving them.
func TestDueRingGrowsWithQueuedDeliveries(t *testing.T) {
	var k Kernel
	k.Run(6) // an offset clock, so residues are not the cycles themselves
	var masks [4]uint8
	for lat := 1; lat <= 3; lat++ {
		p := NewPipe[int](&k, lat)
		p.SetDelivery(Delivery{}.WithMark(&masks[lat], 1))
		p.Push(lat) // visible at 6+lat
	}
	long := NewPipe[int](&k, 9) // past the initial ring
	long.SetDelivery(Delivery{}.WithMark(&masks[0], 1))
	long.Push(9) // visible at 15
	for c := uint64(6); c < 16; c++ {
		k.Step() // ends cycle c: delivers for c+1
		want := [4]uint8{}
		for lat := uint64(1); lat <= 3; lat++ {
			if c+1 >= 6+lat {
				want[lat] = 1
			}
		}
		if c+1 >= 15 {
			want[0] = 1
		}
		if masks != want {
			t.Fatalf("after cycle %d masks %v, want %v", c, masks, want)
		}
	}
}
