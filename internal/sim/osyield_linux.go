package sim

import "syscall"

// osYield offers the calling thread's CPU to any other runnable thread,
// of this process or another, and returns at once when there is none.
func osYield() { _, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }
