//go:build linux

package exec

import (
	"syscall"
	"unsafe"
)

// Per-thread CPU clocks let the runtime report each worker's busy time
// exactly, even on machines with fewer cores than workers (where wall-
// clock intervals overcount by the timeslicing factor). The maximum over
// workers is the search's span — the wall time a machine with >= K free
// cores would observe. BusyNS is read by ctpmark's exec.busy_share, the
// busy_ms fields of /query, /stats and the worker spans, and
// ctp_exec_worker_busy_seconds_total.

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID, linux/time.h

const cpuTimeSupported = true

// threadCPUNanos returns the calling thread's consumed CPU time. The
// caller must be locked to its OS thread for the value to be meaningful
// across two reads.
func threadCPUNanos() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME,
		uintptr(clockThreadCPUTimeID), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return ts.Nano()
}
