package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// parseStatCPU returns utime+stime, in clock ticks, from the text of
// /proc/<pid>/stat. The command name (field 2) may contain spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ")": state is field 3, so utime (14) and stime (15) are
	// the 12th and 13th fields of the remainder.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWM returns the peak resident set size in KiB from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// cpuNanos returns the CPU time a process has used, summed over its
// threads, from /proc/<pid>/task/*/schedstat. It is the same quantity
// as utime+stime but in nanoseconds instead of 10 ms ticks, which a
// repetition of a few hundred milliseconds needs. Kernels without
// schedstats fall back to the ticks.
func cpuNanos(pid, clkTck int) (uint64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("%s: empty", p)
		}
		ns, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p, err)
		}
		total += ns
	}
	if total > 0 {
		return total, nil
	}
	ticks, err := cpuTicks(pid)
	return ticks * uint64(1e9/clkTck), err
}

func peakRSSKiB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// clkTck is the number of /proc clock ticks per second. Go has no
// sysconf without cgo, so getconf is asked; Linux has fixed USER_HZ at
// 100 on every supported architecture, which is the fallback.
func clkTck() int {
	out, err := exec.Command("getconf", "CLK_TCK").Output()
	if err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(out))); err == nil && n > 0 {
			return n
		}
	}
	return 100
}
