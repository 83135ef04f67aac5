package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// ringActor is one station of a token ring that stays inside its shard:
// it pops what its predecessor pushed, logs it, and pushes a token of its
// own on a fixed per-actor period. It sleeps between its timed pushes and
// wakes on arrivals, so a run exercises deliveries, timed wakes and
// quiescence on both shards.
type ringActor struct {
	id     int
	in     *Pipe[int]
	out    *Pipe[int]
	period uint64
	log    []string
}

func (a *ringActor) Tick(c uint64) {
	for v, ok := a.in.Pop(); ok; v, ok = a.in.Pop() {
		a.log = append(a.log, fmt.Sprintf("%d:got%d", c, v))
	}
	if c%a.period == 0 {
		a.out.Push(a.id*1000 + int(c))
	}
}

func (a *ringActor) Quiescent(c uint64) (bool, uint64) {
	return a.in.Empty(), (c/a.period + 1) * a.period
}

// countingBarrier counts the kernel's commits and each shard's dones.
type countingBarrier struct {
	commits int
	done    [2]int
}

func (b *countingBarrier) ShardDone(s int) { b.done[s]++ }
func (b *countingBarrier) Commit()         { b.commits++ }

// buildRing registers n ring actors on k, each shard's actors forming
// their own ring, and returns them.
func buildRing(k *Kernel, n int) []*ringActor {
	split := ShardBoundary(n)
	actors := make([]*ringActor, n)
	pipes := make([]*Pipe[int], n)
	for i := range actors {
		pipes[i] = NewPipe[int](k, 1+i%2)
		actors[i] = &ringActor{id: i, out: pipes[i], period: uint64(3 + i%7)}
	}
	for i, a := range actors {
		lo, hi := 0, split
		if i >= split {
			lo, hi = split, n
		}
		prev := lo + (i-lo+hi-lo-1)%(hi-lo)
		a.in = pipes[prev]
	}
	for _, a := range actors {
		h := k.RegisterActor(a)
		a.in.SetDelivery(Delivery{}.WithWake(h))
		k.EnableQuiescence(h)
	}
	return actors
}

// Ticking the awake set as two shards changes nothing the actors see or
// the kernel counts; each shard reports done once per sharded step. At
// procs1 the shards start on two Ps and step on one: the waits between
// them stay live with the helper and the caller sharing the only P. In
// startstop the split kernel steps serially first, starts its shards
// with values in flight and timed wakes pending, and stops them mid-run
// to step serially again: the cut is fixed when the kernel is built, so
// neither moves a queued delivery.
func TestShardedStepMatchesSerial(t *testing.T) {
	const n, cycles = 160, 400
	for _, tc := range []struct {
		name        string
		procs       int
		start, stop int // the cycles StartShards and StopShards run before
	}{
		{fmt.Sprintf("procs%d", max(2, runtime.GOMAXPROCS(0))), max(2, runtime.GOMAXPROCS(0)), 0, cycles},
		{"procs1", 1, 0, cycles},
		{"startstop", max(2, runtime.GOMAXPROCS(0)), 101, 301},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, tc.procs)))
			var serial, sharded Kernel
			want := buildRing(&serial, n)
			got := buildRing(&sharded, n)
			sharded.Split(Handle(ShardBoundary(n)))
			var b countingBarrier
			steps := 0 // steps asked to tick two shards
			for c := 0; c < cycles; c++ {
				switch c {
				case tc.start:
					if c != 0 && (!inFlight(got) || len(sharded.heap) == 0) {
						t.Fatalf("cycle %d: nothing in flight or no timed wake: the test proves nothing about starting", c)
					}
					if !sharded.StartShards(&b) {
						t.Fatal("a three-word kernel on two free cores did not shard")
					}
					runtime.GOMAXPROCS(tc.procs)
				case tc.stop:
					if !inFlight(got) {
						t.Fatalf("cycle %d: nothing in flight: the test proves nothing about stopping", c)
					}
					sharded.StopShards()
				}
				serial.Step()
				if sharded.ShardStep(c%5 != 0) { // some steps stay one shard
					steps++
				}
				sharded.Step()
			}
			sharded.StopShards()
			for i := range want {
				if !reflect.DeepEqual(want[i].log, got[i].log) {
					t.Fatalf("actor %d saw %v, serially %v", i, got[i].log, want[i].log)
				}
			}
			ws, gs := serial.Stats(), sharded.Stats()
			if gs.Sharded != uint64(steps) || steps != (tc.stop-tc.start)*4/5 ||
				b.commits != tc.stop-tc.start || b.done != [2]int{steps, steps} {
				t.Fatalf("%d sharded steps of %d asked, %d commits, %v dones", gs.Sharded, steps, b.commits, b.done)
			}
			gs.Sharded = 0
			if ws != gs {
				t.Fatalf("stats %+v, serially %+v", gs, ws)
			}
			if ws.Skipped == 0 {
				t.Fatal("nobody slept: the test proves nothing about wakes")
			}
		})
	}
}

// inFlight reports whether some actor's input holds a value that is not
// visible yet, so a delivery for it is queued.
func inFlight(actors []*ringActor) bool {
	for _, a := range actors {
		if a.in.held > a.in.Visible() {
			return true
		}
	}
	return false
}

// barrierCall is one call a sharded kernel made on its Barrier: shard is
// ShardDone's argument, or -1 for Commit.
type barrierCall struct {
	cycle uint64
	shard int
	g     string
}

// orderBarrier logs every call with the goroutine that made it, and
// checks at each ShardDone that the shard's deliveries for the next
// cycle are made: every actor of the shard whose input turns visible
// then is awake.
type orderBarrier struct {
	k      *Kernel
	actors []*ringActor
	split  int

	mu       sync.Mutex
	calls    []barrierCall
	arrivals int
	asleep   []string
}

func (b *orderBarrier) ShardDone(s int) {
	c := b.k.Cycle()
	lo, hi := 0, b.split
	if s == 1 {
		lo, hi = b.split, len(b.actors)
	}
	arrivals := 0
	var asleep []string
	for i := lo; i < hi; i++ {
		in := b.actors[i].in
		if in.held == 0 || in.buf[in.head].at != c+1 {
			continue
		}
		arrivals++
		if b.k.Asleep(Handle(i)) {
			asleep = append(asleep, fmt.Sprintf("cycle %d actor %d", c, i))
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, barrierCall{c, s, goroutine()})
	b.arrivals += arrivals
	b.asleep = append(b.asleep, asleep...)
}

func (b *orderBarrier) Commit() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, barrierCall{b.k.Cycle(), -1, goroutine()})
}

// goroutine returns the calling goroutine's id, from its stack header.
func goroutine() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// In a two-shard step, shard 0's ShardDone runs on the caller and shard
// 1's on the helper — the same goroutine every step — each once, after
// the shard's deliveries and before Commit. A one-shard step, and a
// kernel at one P, which never shards, call neither.
func TestShardDoneRunsOnItsShard(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const n, cycles = 160, 400
	var k Kernel
	b := &orderBarrier{k: &k, actors: buildRing(&k, n), split: ShardBoundary(n)}
	k.Split(Handle(b.split))
	if !k.StartShards(b) {
		t.Fatal("a three-word kernel on two free cores did not shard")
	}
	for c := 0; c < cycles; c++ {
		k.ShardStep(c%5 != 0)
		k.Step()
	}
	k.StopShards()
	caller, helper := goroutine(), ""
	calls := b.calls
	for c := uint64(0); c < cycles; c++ {
		var step []barrierCall
		for len(calls) > 0 && calls[0].cycle == c {
			step, calls = append(step, calls[0]), calls[1:]
		}
		if len(step) == 0 || step[len(step)-1] != (barrierCall{c, -1, caller}) {
			t.Fatalf("cycle %d: calls %v, want Commit on the caller (goroutine %s) last", c, step, caller)
		}
		done := step[:len(step)-1]
		if c%5 == 0 {
			if len(done) != 0 {
				t.Fatalf("one-shard cycle %d: ShardDone calls %v", c, done)
			}
			continue
		}
		if len(done) != 2 || done[0].shard+done[1].shard != 1 {
			t.Fatalf("two-shard cycle %d: ShardDone calls %v, want one per shard", c, done)
		}
		for _, d := range done {
			switch {
			case d.shard == 0 && d.g != caller:
				t.Fatalf("cycle %d: ShardDone(0) on goroutine %s, not the caller's %s", c, d.g, caller)
			case d.shard == 1 && (d.g == caller || helper != "" && d.g != helper):
				t.Fatalf("cycle %d: ShardDone(1) on goroutine %s (caller %s, helper %s)", c, d.g, caller, helper)
			case d.shard == 1:
				helper = d.g
			}
		}
	}
	if len(calls) != 0 {
		t.Fatalf("calls past the last cycle: %v", calls)
	}
	if len(b.asleep) != 0 {
		t.Fatalf("ShardDone ran before its shard's deliveries: %d actors asleep with input due, first %v",
			len(b.asleep), b.asleep[:min(5, len(b.asleep))])
	}
	if b.arrivals == 0 {
		t.Fatal("no input was due at any ShardDone: the test proves nothing about deliveries")
	}

	runtime.GOMAXPROCS(1)
	var one Kernel
	b1 := &orderBarrier{k: &one, actors: buildRing(&one, n), split: ShardBoundary(n)}
	one.Split(Handle(b1.split))
	if one.StartShards(b1) {
		t.Fatal("StartShards sharded at one P")
	}
	for c := 0; c < 50; c++ {
		one.ShardStep(true)
		one.Step()
	}
	if len(b1.calls) != 0 {
		t.Fatalf("a kernel at one P made barrier calls %v", b1.calls)
	}
}

// A panic in either shard surfaces from Step on the calling goroutine,
// and the kernel still gives its helper back once the other shard is
// done.
func TestShardPanicReachesCaller(t *testing.T) {
	for _, culprit := range []int{10, 100} {
		t.Run(fmt.Sprintf("actor%d", culprit), func(t *testing.T) {
			var k Kernel
			for i := 0; i < 128; i++ {
				i := i
				k.Register(ActorFunc(func(c uint64) {
					if i == culprit && c == 3 {
						panic("boom")
					}
				}))
			}
			k.Split(64)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
			if !k.StartShards(&countingBarrier{}) {
				t.Fatal("a two-word kernel on two free cores did not shard")
			}
			defer k.StopShards()
			defer func() {
				if p := recover(); p != "boom" {
					t.Fatalf("recovered %v, want the shard's panic", p)
				}
			}()
			for c := 0; c < 5; c++ {
				k.ShardStep(true)
				k.Step()
			}
			t.Fatal("no panic")
		})
	}
}

// The core budget: claimCores is all-or-nothing within GOMAXPROCS, and a
// pool's HoldCores counts against it. StartShards claims its two cores
// from it, refusing when they are not free (at one P, always), and
// StopShards gives them back.
func TestClaimCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if !claimCores(2) || !claimCores(2) {
		t.Fatal("four free cores refused two claims of two")
	}
	if claimCores(1) {
		t.Fatal("a fifth core was claimed")
	}
	ReleaseCores(4)
	HoldCores(3)
	if claimCores(2) {
		t.Fatal("two cores claimed beside a pool holding three")
	}
	if !claimCores(1) {
		t.Fatal("the last core was refused")
	}
	ReleaseCores(4)
	if !claimCores(4) {
		t.Fatal("released cores were not returned")
	}
	ReleaseCores(4)

	var k Kernel
	for i := 0; i < 128; i++ {
		k.Register(ActorFunc(func(uint64) {}))
	}
	if k.StartShards(&countingBarrier{}) {
		t.Fatal("StartShards sharded a kernel with no cut")
	}
	k.Split(64)
	HoldCores(3)
	if k.StartShards(&countingBarrier{}) {
		t.Fatal("StartShards claimed two cores beside a pool holding three")
	}
	ReleaseCores(3)
	if !k.StartShards(&countingBarrier{}) || k.StartShards(&countingBarrier{}) {
		t.Fatal("StartShards refused four free cores, or started twice")
	}
	k.StopShards()
	if !claimCores(4) {
		t.Fatal("StopShards did not return its cores")
	}
	ReleaseCores(4)
	runtime.GOMAXPROCS(1)
	if k.StartShards(&countingBarrier{}) {
		t.Fatal("StartShards sharded at one P")
	}
}

// Split takes only a cut that starts an awake-set word and leaves both
// shards actors.
func TestStartShardsCut(t *testing.T) {
	var k Kernel
	for i := 0; i < 128; i++ {
		k.Register(ActorFunc(func(uint64) {}))
	}
	for _, first := range []Handle{0, 32, 65, 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split took cut %d", first)
				}
			}()
			k.Split(first)
		}()
	}
}

func TestShardBoundary(t *testing.T) {
	for actors, want := range map[int]int{
		0: 0, 64: 0, 65: 0, 72: 0, 96: 64, 98: 64, 128: 64, 162: 64, 192: 64, 193: 128, 200: 128, 512: 256,
	} {
		if got := ShardBoundary(actors); got != want {
			t.Errorf("ShardBoundary(%d) = %d, want %d", actors, got, want)
		}
	}
}
