//go:build !linux

package steady_test

import "time"

func gettid() int { return 0 }

// threadCPU reports no clock: only Linux lets one thread read another's.
func threadCPU(int) (time.Duration, bool) { return 0, false }
