package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn(10) value %d drawn %d times out of 100000; distribution badly skewed", v, c)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBoolExtremes(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) hit rate %.4f, want ~0.25", frac)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Split()
	// Child stream must not replay the parent stream.
	a, b := parent.Uint64(), child.Uint64()
	if a == b {
		t.Fatal("split child replayed parent draw")
	}
}

// SplitN draws a slab of streams exactly as successive Split calls
// would, and leaves the parent where those calls would.
func TestRNGSplitNMatchesSplit(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	slab := a.SplitN(nil, 5)
	for i := range slab {
		one := b.Split()
		for d := 0; d < 3; d++ {
			if x, y := slab[i].Uint64(), one.Uint64(); x != y {
				t.Fatalf("stream %d draw %d: SplitN %d, Split %d", i, d, x, y)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN left the parent elsewhere than five Splits")
	}
}

// Reserve presizes the actor tables: registering that many actors
// afterwards allocates nothing.
func TestKernelReserve(t *testing.T) {
	var k Kernel
	k.Reserve(nil, 200)
	a := ActorFunc(func(uint64) {})
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			k.RegisterActor(a)
		}
	}); n != 0 {
		t.Fatalf("registering reserved actors made %v allocations", n)
	}
}

func TestKernelCycleCount(t *testing.T) {
	var k Kernel
	k.Run(17)
	if k.Cycle() != 17 {
		t.Fatalf("Cycle() = %d, want 17", k.Cycle())
	}
}

func TestKernelActorsTickEveryCycle(t *testing.T) {
	var k Kernel
	var got []uint64
	k.Register(ActorFunc(func(c uint64) { got = append(got, c) }))
	k.Run(5)
	want := []uint64{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("actor ticked %d times, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tick %d saw cycle %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPipeLatencyOne(t *testing.T) {
	var k Kernel
	p := NewPipe[int](&k, 1)
	p.Push(42)
	if _, ok := p.Pop(); ok {
		t.Fatal("value visible in the same cycle it was pushed")
	}
	k.Step()
	v, ok := p.Pop()
	if !ok || v != 42 {
		t.Fatalf("after 1 cycle got (%d,%v), want (42,true)", v, ok)
	}
}

func TestPipeLatencyThree(t *testing.T) {
	var k Kernel
	p := NewPipe[string](&k, 3)
	p.Push("x")
	for i := 0; i < 2; i++ {
		k.Step()
		if !p.Empty() {
			t.Fatalf("value visible after %d cycles, want 3", i+1)
		}
	}
	k.Step()
	v, ok := p.Pop()
	if !ok || v != "x" {
		t.Fatalf("after 3 cycles got (%q,%v), want (x,true)", v, ok)
	}
}

func TestPipeFIFOOrder(t *testing.T) {
	var k Kernel
	p := NewPipe[int](&k, 1)
	p.Push(1)
	p.Push(2)
	k.Step()
	p.Push(3)
	a, _ := p.Pop()
	k.Step()
	b, _ := p.Pop()
	c, _ := p.Pop()
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("got order %d,%d,%d, want 1,2,3", a, b, c)
	}
}

func TestPipeStalledConsumerKeepsData(t *testing.T) {
	var k Kernel
	p := NewPipe[int](&k, 1)
	p.Push(9)
	k.Run(10) // consumer stalls for many cycles
	v, ok := p.Pop()
	if !ok || v != 9 {
		t.Fatalf("stalled value lost: got (%d,%v)", v, ok)
	}
}

// popAll pops every value visible this cycle, oldest first.
func popAll[T any](p *Pipe[T]) (vs []T) {
	for v, ok := p.Pop(); ok; v, ok = p.Pop() {
		vs = append(vs, v)
	}
	return vs
}

func TestPipeInFlight(t *testing.T) {
	var k Kernel
	p := NewPipe[int](&k, 2)
	p.Push(1)
	if p.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1 (staged)", p.InFlight())
	}
	k.Step()
	p.Push(2)
	if p.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", p.InFlight())
	}
	k.Step()
	k.Step()
	if p.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2 (both visible, unconsumed)", p.InFlight())
	}
	popAll(p)
	if p.InFlight() != 0 {
		t.Fatalf("InFlight = %d, want 0", p.InFlight())
	}
}

func TestPipePanicsOnZeroLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipe with latency 0 did not panic")
		}
	}()
	var k Kernel
	NewPipe[int](&k, 0)
}

// Property: any push sequence through a pipe preserves order and loses
// nothing, regardless of latency and step pattern.
func TestPipeLosslessProperty(t *testing.T) {
	f := func(vals []uint8, latSeed uint8) bool {
		lat := int(latSeed%4) + 1
		var k Kernel
		p := NewPipe[uint8](&k, lat)
		for _, v := range vals {
			p.Push(v)
			k.Step()
		}
		k.Run(uint64(lat))
		got := popAll(p)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPipePeek(t *testing.T) {
	var k Kernel
	p := NewPipe[int](&k, 1)
	if _, ok := p.Peek(); ok {
		t.Fatal("peek on empty pipe")
	}
	p.Push(7)
	k.Step()
	v, ok := p.Peek()
	if !ok || v != 7 {
		t.Fatalf("Peek = %d,%v", v, ok)
	}
	// Peek must not consume.
	if v, ok := p.Pop(); !ok || v != 7 {
		t.Fatalf("Pop after Peek = %d,%v", v, ok)
	}
}

func TestPipeLatencyAccessor(t *testing.T) {
	var k Kernel
	if NewPipe[int](&k, 3).Latency() != 3 {
		t.Fatal("Latency() wrong")
	}
}

// sleeper is a Quiescer that sleeps after every tick with a fixed timed
// wake offset (0 = sleep until delivery), draining its input pipe, if any.
// It decides inside Tick whether the cycle is a work tick — its first
// cycle, a value visible on its pipe, or the cycle it last declared as
// its timed wake — and logs only those in ticks, so the log is the same
// in a kernel where it was not opted in (which ticks it every cycle) as
// in one where it was (which should tick it on exactly the work cycles).
// calls counts every Tick.
type sleeper struct {
	ticks  []uint64
	calls  int
	offset uint64
	// next, if set, replaces offset: the wake to declare after working at
	// c (0 = none), so a test can repeat, postpone or drop a wake.
	next func(c uint64) uint64
	// linger keeps the actor awake while values are in flight towards it.
	linger  bool
	in      *Pipe[int]
	started bool
	wake    uint64 // declared timed wake, 0 = none
}

func (s *sleeper) Tick(c uint64) {
	s.calls++
	if s.started && c != s.wake && (s.in == nil || s.in.Empty()) {
		return
	}
	s.started = true
	s.ticks = append(s.ticks, c)
	if s.in != nil {
		popAll(s.in)
	}
	s.wake = 0
	if s.next != nil {
		s.wake = s.next(c)
	} else if s.offset != 0 {
		s.wake = c + s.offset
	}
}
func (s *sleeper) Quiescent(uint64) (bool, uint64) {
	return !s.linger || s.in.InFlight() == 0, s.wake
}

// Opting in an actor that is not a Quiescer changes nothing: it ticks every
// cycle beside sleepers that do not, and its ticks are owed, not Events.
func TestEventKernelTicksNonQuiescersEveryCycle(t *testing.T) {
	var k Kernel
	var got []uint64
	k.EnableQuiescence(k.RegisterActor(&sleeper{}))
	h := k.RegisterActor(ActorFunc(func(c uint64) { got = append(got, c) }))
	k.EnableQuiescence(h)
	k.Run(5)
	if len(got) != 5 || k.Asleep(h) {
		t.Fatalf("non-quiescer ticked %d times in 5 cycles (asleep %v), want 5", len(got), k.Asleep(h))
	}
	for i, c := range got {
		if c != uint64(i) {
			t.Fatalf("tick %d saw cycle %d", i, c)
		}
	}
	if st := k.Stats(); st.Ticked != 6 || st.Skipped != 4 || st.Events != 1 {
		t.Fatalf("Stats = %+v, want 6 ticked, 4 skipped, 1 event (the sleeper's one tick)", st)
	}
}

func TestEventKernelTimedWake(t *testing.T) {
	var k Kernel
	s := &sleeper{offset: 7}
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	k.Run(22)
	want := []uint64{0, 7, 14, 21}
	if len(s.ticks) != len(want) {
		t.Fatalf("sleeper ticks = %v, want %v", s.ticks, want)
	}
	for i := range want {
		if s.ticks[i] != want[i] {
			t.Fatalf("sleeper ticks = %v, want %v", s.ticks, want)
		}
	}
	if !k.Asleep(h) {
		t.Fatal("sleeper not asleep between timed wakes")
	}
	st := k.Stats()
	if st.Events != uint64(len(want)) {
		t.Fatalf("Events = %d, want %d", st.Events, len(want))
	}
	if st.Ticked != uint64(len(want)) || st.Ticked+st.Skipped != 22 {
		t.Fatalf("Stats = %+v, want ticked %d and ticked+skipped 22", st, len(want))
	}
}

// TestEventKernelFarWake: a timed wake far in the future fires on the
// exact cycle.
func TestEventKernelFarWake(t *testing.T) {
	var k Kernel
	s := &sleeper{offset: 1000}
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	k.Run(1001)
	want := []uint64{0, 1000}
	if len(s.ticks) != 2 || s.ticks[0] != want[0] || s.ticks[1] != want[1] {
		t.Fatalf("far-wake ticks = %v, want %v", s.ticks, want)
	}
}

// TestEventKernelDeliveryWakeSupersedesTimer: a pipe delivery must wake a
// sleeping actor before its timed deadline, and the stale heap entry must
// not cause a duplicate tick when its cycle comes around.
func TestEventKernelDeliveryWakeSupersedesTimer(t *testing.T) {
	var k Kernel
	s := &sleeper{offset: 50}
	h := k.RegisterActor(s)
	k.EnableQuiescence(h)
	p := NewPipe[int](&k, 1)
	s.in = p
	p.SetDelivery(Delivery{}.WithWake(h))
	k.Run(3) // sleeper ticks at 0, sleeps until 50
	p.Push(1)
	k.Run(60)
	// Delivery visible after the cycle-3 latch wakes it for cycle 4; it
	// then re-sleeps until 54. The stale entry at 50 must not tick it.
	want := []uint64{0, 4, 54}
	if len(s.ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", s.ticks, want)
	}
	for i := range want {
		if s.ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", s.ticks, want)
		}
	}
}

// TestEventKernelRegistrationOrder: actors due on the same cycle dispatch
// in registration order regardless of how their wakes were scheduled.
func TestEventKernelRegistrationOrder(t *testing.T) {
	var k Kernel
	var order []int
	mk := func(id int, offset uint64) Handle {
		s := &orderSleeper{id: id, offset: offset, order: &order}
		h := k.RegisterActor(s)
		k.EnableQuiescence(h)
		return h
	}
	// Different offsets that all coincide at cycle 12.
	mk(0, 12)
	mk(1, 6)
	mk(2, 4)
	mk(3, 3)
	k.Run(13)
	// At cycle 12 all four are due; the tail of order must be 0,1,2,3.
	tail := order[len(order)-4:]
	for i, id := range tail {
		if id != i {
			t.Fatalf("cycle-12 dispatch order = %v, want [0 1 2 3]", tail)
		}
	}
}

type orderSleeper struct {
	id     int
	offset uint64
	order  *[]int
}

func (s *orderSleeper) Tick(uint64) { *s.order = append(*s.order, s.id) }
func (s *orderSleeper) Quiescent(c uint64) (bool, uint64) {
	next := (c/s.offset + 1) * s.offset
	return true, next
}

// TestEventKernelMatchesQuiescent (named for the quiescence protocol it
// exercises) runs a mix of sleepers in a kernel nobody opted into and in
// one where all did, and requires identical work-tick logs — the
// unit-level version of the network differential grids. The opted-in
// kernel must also execute no tick that is not a work tick, so a missed
// wake, a late wake and a spurious tick all fail.
func TestEventKernelMatchesQuiescent(t *testing.T) {
	build := func(optIn bool) ([]*sleeper, Stats) {
		var k Kernel
		actors := []*sleeper{
			{offset: 0}, {offset: 3}, {offset: 1}, {offset: 17}, {offset: 300},
		}
		pipes := make([]*Pipe[int], len(actors))
		for _, s := range actors {
			h := k.RegisterActor(s)
			if optIn {
				k.EnableQuiescence(h)
			}
			p := NewPipe[int](&k, 1)
			s.in = p
			p.SetDelivery(Delivery{}.WithWake(h))
			pipes[h] = p
		}
		for i := 0; i < 500; i++ {
			if i%41 == 0 {
				pipes[0].Push(i) // wake the delivery-only sleeper
			}
			k.Step()
		}
		return actors, k.Stats()
	}
	want, _ := build(false)
	got, st := build(true)
	work := 0
	for i := range want {
		requireSameTicks(t, i, want[i].ticks, got[i].ticks)
		work += len(got[i].ticks)
	}
	if st.Ticked != uint64(work) {
		t.Fatalf("opted-in kernel executed %d ticks for %d work ticks", st.Ticked, work)
	}
}

// requireSameTicks fails unless one actor's work-tick logs in the
// every-cycle kernel and in the opted-in one are equal.
func requireSameTicks(t *testing.T, actor int, every, optedIn []uint64) {
	t.Helper()
	if len(every) != len(optedIn) {
		t.Fatalf("actor %d: ticked every cycle it logged %d work ticks, opted in %d", actor, len(every), len(optedIn))
	}
	for j := range every {
		if every[j] != optedIn[j] {
			t.Fatalf("actor %d work tick %d: at %d ticked every cycle, at %d opted in", actor, j, every[j], optedIn[j])
		}
	}
}

// The zero-value Kernel is a ready serial scheduler: with nobody opted in,
// every registered actor ticks every cycle — Quiescers included — and
// pipes latch.
func TestKernelZeroValueTicksEverything(t *testing.T) {
	var k Kernel
	s := &sleeper{}
	n := 0
	k.Register(ActorFunc(func(uint64) { n++ }))
	h := k.RegisterActor(s)
	p := NewPipe[int](&k, 2)
	p.Push(5)
	k.Run(6)
	if n != 6 || s.calls != 6 {
		t.Fatalf("6 cycles ticked the plain actor %d times and the Quiescer %d times, want 6 and 6", n, s.calls)
	}
	if v, ok := p.Pop(); !ok || v != 5 {
		t.Fatalf("pipe did not latch under the zero-value kernel: got (%d,%v)", v, ok)
	}
	if st := k.Stats(); st.Ticked != 12 || st.Skipped != 0 || st.Events != 0 || k.Asleep(h) {
		t.Fatalf("Stats = %+v, asleep %v; want 12 ticked, nothing skipped or dispatched, nobody asleep", st, k.Asleep(h))
	}
}

// Summary is the kernel line's tail both CLIs print: empty with no ticks
// due, and naming events and two-shard steps only when there were any.
func TestStatsSummary(t *testing.T) {
	for _, tc := range []struct {
		s    Stats
		want string
	}{
		{Stats{}, ""},
		{Stats{Ticked: 60, Skipped: 40}, "40.0% actor ticks skipped"},
		{Stats{Ticked: 60, Skipped: 40, Events: 9, Sharded: 7}, "40.0% actor ticks skipped, 9 events dispatched, 7 steps as two shards"},
	} {
		if got := tc.s.Summary(); got != tc.want {
			t.Errorf("%+v.Summary() = %q, want %q", tc.s, got, tc.want)
		}
	}
}
