//go:build !linux

package metrics_test

import "time"

var cpuEpoch = time.Now()

// threadCPU falls back to the wall clock where there is no per-thread CPU
// clock to read.
func threadCPU() time.Duration { return time.Since(cpuEpoch) }
