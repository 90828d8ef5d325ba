//go:build linux

package steady_test

import (
	"syscall"
	"time"
	"unsafe"
)

func gettid() int { return syscall.Gettid() }

// threadCPU is the CPU time thread tid has run, read off its scheduler
// clock (the clock pthread_getcpuclockid names: ^tid<<3 with the
// per-thread and sched bits), which another thread can read exactly
// while tid runs.
func threadCPU(tid int) (time.Duration, bool) {
	var ts syscall.Timespec
	clock := ^uintptr(tid)<<3 | 6
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
