package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// What a core does between requests is a property of the box, not of
// the code under test. With one serial caller each side sleeps while
// the other works, the idle vCPU halts, and waking it is a trip
// through the hypervisor whose price depends on the host: the same
// binary gave a hot-hit median of 280..320 µs from one run to the
// next, 200..230 with the cores kept awake. The benchmark therefore
// runs, on every CPU it uses, one spinner at the SCHED_IDLE policy —
// user space's idle=poll. Any runnable thread of the client or a
// daemon preempts it at once, so it takes nothing from them but the
// halt.

const (
	spinFlag  = "spin-on-cpu"
	schedIdle = 5 // SCHED_IDLE in <linux/sched.h>
)

// spin is the whole of a spinner process: bind to cpu, drop to
// SCHED_IDLE, report readiness on standard output, never return.
func spin(cpu int) int {
	runtime.LockOSThread()
	if err := setThreadAffinity([]int{cpu}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "bench: sched_setscheduler(SCHED_IDLE):", errno)
		return 1
	}
	fmt.Println("spinning")
	for {
	}
}

// selfCommand prepares a copy of the benchmark in one of its hidden
// modes. The copy dies with ctx and, through Pdeathsig, with the
// benchmark itself.
func selfCommand(ctx context.Context, args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// startSpinners starts one spinner per CPU and returns once each has
// said it is at idle priority; a spinner at normal priority would
// compete with what is being measured. stop kills and reaps them.
func startSpinners(ctx context.Context, sp *spawner, cpus []int) (stop func(), err error) {
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			_ = c.Process.Kill()
			_ = c.Wait() // killed by us: the status says nothing
		}
	}
	for _, cpu := range cpus {
		cmd, err := selfCommand(ctx, "-"+spinFlag, strconv.Itoa(cpu))
		if err != nil {
			stop()
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := sp.start(cmd); err != nil {
			stop()
			return nil, fmt.Errorf("start spinner: %w", err)
		}
		cmds = append(cmds, cmd)
		if _, err := bufio.NewReader(out).ReadString('\n'); err != nil {
			stop()
			return nil, fmt.Errorf("cannot keep CPU %d awake at idle priority: latencies would measure the hypervisor, refusing to run", cpu)
		}
	}
	return stop, nil
}
