package sim

import (
	"testing"
)

// buildParallel registers n sleepers (one pipe each), splits them across
// the given worker count round-robin with the last actor serial, and
// returns the kernel plus the actors and their pipes.
func buildParallel(t *testing.T, offsets []uint64, workers int) (*Kernel, []*sleeper, []*Pipe[int]) {
	t.Helper()
	var k Kernel
	actors := make([]*sleeper, len(offsets))
	pipes := make([]*Pipe[int], len(offsets))
	groups := make([]int, len(offsets))
	for i, off := range offsets {
		s := &sleeper{offset: off}
		actors[i] = s
		h := k.RegisterActor(s)
		k.EnableQuiescence(h)
		p := NewPipe[int](&k, 1)
		s.in = p
		p.SetDelivery(Delivery{}.WithWake(h))
		pipes[i] = p
		groups[i] = i % workers
	}
	groups[len(groups)-1] = -1 // one serial actor, to cover both phases
	k.SetParallel(groups, workers)
	return &k, actors, pipes
}

// TestParallelKernelMatchesQuiescent is the unit-level differential for
// ModeParallel: a randomized mix of delivery-woken and timed-wake
// sleepers must produce identical tick traces under the quiescent
// walk and under every partitioning of the same actors.
func TestParallelKernelMatchesQuiescent(t *testing.T) {
	offsets := []uint64{0, 3, 1, 17, 300, 5, 2}
	run := func(k *Kernel, pipes []*Pipe[int]) {
		for i := 0; i < 500; i++ {
			if i%41 == 0 {
				pipes[0].Push(i) // wake the delivery-only sleeper
			}
			k.Step()
		}
		k.StopWorkers()
	}

	var ref Kernel
	want := make([]*sleeper, len(offsets))
	refPipes := make([]*Pipe[int], len(offsets))
	for i, off := range offsets {
		s := &sleeper{offset: off}
		want[i] = s
		h := ref.RegisterActor(s)
		ref.EnableQuiescence(h)
		p := NewPipe[int](&ref, 1)
		s.in = p
		p.SetDelivery(Delivery{}.WithWake(h))
		refPipes[i] = p
	}
	run(&ref, refPipes)

	for workers := 1; workers <= 4; workers++ {
		k, got, pipes := buildParallel(t, offsets, workers)
		run(k, pipes)
		for i := range want {
			if len(want[i].ticks) != len(got[i].ticks) {
				t.Fatalf("%d workers, actor %d: quiescent ticked %d, parallel ticked %d",
					workers, i, len(want[i].ticks), len(got[i].ticks))
			}
			for j := range want[i].ticks {
				if want[i].ticks[j] != got[i].ticks[j] {
					t.Fatalf("%d workers, actor %d tick %d: quiescent at %d, parallel at %d",
						workers, i, j, want[i].ticks[j], got[i].ticks[j])
				}
			}
		}
	}
}

// TestParallelKernelTimedWake pins the per-worker timed-wake heap: a
// sleeper owned by a region worker must tick on exactly its deadline
// cycles, and the per-worker telemetry must fold into the top-level
// totals.
func TestParallelKernelTimedWake(t *testing.T) {
	k, actors, _ := buildParallel(t, []uint64{7, 0}, 1)
	defer k.StopWorkers()
	k.Run(22)
	want := []uint64{0, 7, 14, 21}
	if len(actors[0].ticks) != len(want) {
		t.Fatalf("worker-owned sleeper ticks = %v, want %v", actors[0].ticks, want)
	}
	for i := range want {
		if actors[0].ticks[i] != want[i] {
			t.Fatalf("worker-owned sleeper ticks = %v, want %v", actors[0].ticks, want)
		}
	}
	st := k.Stats()
	if len(st.Workers) != 1 {
		t.Fatalf("Stats.Workers has %d entries, want 1", len(st.Workers))
	}
	// Worker 0 owns the timed sleeper (4 ticks in 22 cycles); the serial
	// delivery-only sleeper ticked once at cycle 0.
	if st.Workers[0].Ticked != 4 || st.Workers[0].Skipped != 18 {
		t.Fatalf("worker stats = %+v, want 4 ticked / 18 skipped", st.Workers[0])
	}
	if st.Ticked != 5 || st.Ticked+st.Skipped != 44 {
		t.Fatalf("Stats = %+v, want 5 ticked of 44 total slots", st)
	}
}

// TestParallelLastTicked covers the mid-cycle observation hook: a handle
// reports the cycle it last physically ticked, and never-ticked or
// sleeping handles say so.
func TestParallelLastTicked(t *testing.T) {
	k, _, _ := buildParallel(t, []uint64{5, 0}, 1)
	defer k.StopWorkers()
	if _, ok := k.LastTicked(0); ok {
		t.Fatal("LastTicked true before any step")
	}
	k.Step() // both tick on cycle 0, then sleep
	if c, ok := k.LastTicked(0); !ok || c != 0 {
		t.Fatalf("LastTicked(0) = %d,%v after first step, want 0,true", c, ok)
	}
	k.Run(4) // sleeper 0 sleeps until cycle 5; nothing ticks
	if c, ok := k.LastTicked(0); !ok || c != 0 {
		t.Fatalf("LastTicked(0) = %d,%v while asleep, want 0,true", c, ok)
	}
	k.Step() // cycle 5: the timed wake fires
	if c, ok := k.LastTicked(0); !ok || c != 5 {
		t.Fatalf("LastTicked(0) = %d,%v after timed wake, want 5,true", c, ok)
	}
}

// TestParallelStopWorkersIdempotent: StopWorkers may be called multiple
// times, before or after the workers ever started, and stepping a
// stopped kernel panics instead of deadlocking on closed channels.
func TestParallelStopWorkersIdempotent(t *testing.T) {
	k, _, _ := buildParallel(t, []uint64{0, 0}, 2)
	k.Run(3)
	k.StopWorkers()
	k.StopWorkers() // second call must be a no-op
	defer func() {
		if recover() == nil {
			t.Fatal("Step after StopWorkers did not panic")
		}
	}()
	k.Step()
}

// TestParallelStopBeforeStart: a kernel configured for ModeParallel but
// never stepped has no goroutines; StopWorkers must still be safe.
func TestParallelStopBeforeStart(t *testing.T) {
	k, _, _ := buildParallel(t, []uint64{0}, 1)
	k.StopWorkers()
	k.StopWorkers()
}

// TestStopWorkersOutsideParallel: serial kernels have no workers and
// StopWorkers must be a no-op, so callers can defer it unconditionally.
func TestStopWorkersOutsideParallel(t *testing.T) {
	var k Kernel
	k.Register(ActorFunc(func(uint64) {}))
	k.Run(2)
	k.StopWorkers()
	if k.Workers() != 0 {
		t.Fatalf("Workers() = %d outside ModeParallel, want 0", k.Workers())
	}
}

// TestSetParallelValidation: the partition must cover every actor with
// in-range groups and at least one worker.
func TestSetParallelValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var k Kernel
	k.Register(ActorFunc(func(uint64) {}), ActorFunc(func(uint64) {}))
	mustPanic("zero workers", func() { k.SetParallel([]int{0, 0}, 0) })
	mustPanic("short groups", func() { k.SetParallel([]int{0}, 1) })
	mustPanic("group out of range", func() { k.SetParallel([]int{0, 1}, 1) })
}
