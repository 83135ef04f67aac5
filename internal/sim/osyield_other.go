//go:build !linux

package sim

// osYield would offer the calling thread's CPU to other threads; without
// sched_yield there is no portable way, and the runtime.Gosched beside
// each call is all a wait offers.
func osYield() {}
