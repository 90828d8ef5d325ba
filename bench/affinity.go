package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// On a two-core box the largest run-to-run difference in a latency
// measured over loopback is where the kernel happens to place the
// client's and the daemon's threads: the same binary gave a hot-hit
// median anywhere from 247 to 303 µs. The benchmark therefore gives the
// client the first CPU it is allowed and the daemons all the others,
// which is also what "the other core belongs to the daemon" means.

const pinnedEnv = "STEADY_BENCH_DAEMON_CPUS"

// cpuMask is a sched_setaffinity bit mask for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

func (m cpuMask) cpus() []int {
	var out []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// setThreadAffinity restricts the calling OS thread, and every thread
// and process later created from it, to cpus.
func setThreadAffinity(cpus []int) error {
	m := maskOf(cpus)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity %v: %w", cpus, errno)
	}
	return nil
}

func threadAffinity() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m.cpus(), nil
}

func formatCPUs(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

func parseCPUs(s string) ([]int, error) {
	var cpus []int
	for _, f := range strings.Split(s, ",") {
		c, err := strconv.Atoi(f)
		if err != nil || c < 0 || c >= len(cpuMask{})*64 {
			return nil, fmt.Errorf("bad CPU list %q", s)
		}
		cpus = append(cpus, c)
	}
	return cpus, nil
}

// pinClient confines the whole benchmark process to its first allowed
// CPU and returns the CPUs left for the daemons. A running Go process
// cannot move its existing threads reliably, so the process pins one
// thread and re-executes itself from it; the second incarnation finds
// the daemons' CPUs in its environment. With a single allowed CPU
// there is nothing to separate and everything shares it.
func pinClient() (client, daemons []int, err error) {
	if list := os.Getenv(pinnedEnv); list != "" {
		if daemons, err = parseCPUs(list); err != nil {
			return nil, nil, err
		}
		client, err = threadAffinity()
		return client, daemons, err
	}
	allowed, err := threadAffinity()
	if err != nil {
		return nil, nil, err
	}
	if len(allowed) < 2 {
		return allowed, allowed, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	runtime.LockOSThread()
	if err := setThreadAffinity(allowed[:1]); err != nil {
		return nil, nil, err
	}
	env := append(os.Environ(), pinnedEnv+"="+formatCPUs(allowed[1:]))
	return nil, nil, syscall.Exec(exe, os.Args, env) // returns only on failure
}
