package metrics_test

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU is the CPU time the calling OS thread has run. Timing a loop by
// it, with the goroutine locked to its thread, leaves out the time the
// thread spent descheduled while other processes ran.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
