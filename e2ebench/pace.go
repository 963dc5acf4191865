package main

import (
	"syscall"
	"time"
)

// sleepUntil waits until monotonic time at. The Go scheduler's sleep is
// only millisecond precise once the netpoller parks the thread, so the
// last stretch is a nanosleep system call, which wakes within the
// kernel's timer slack (tens of microseconds).
func sleepUntil(at int64) {
	for {
		d := at - nanotime()
		switch {
		case d <= 0:
			return
		case d > int64(2*time.Millisecond):
			time.Sleep(time.Duration(d) - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(d)
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
		}
	}
}

// slotAt returns when the k-th op of a series paced at one per period
// from start is due: a seeded uniform point inside its slot, so that
// ops land at every phase of the system's tick. On a fixed grid they
// would meet only a few phases, chosen by when the run happened to
// start.
func slotAt(start, period int64, seed uint64, k int64) int64 {
	h := rng{s: seed ^ uint64(k)*0x9e3779b97f4a7c15}
	return start + k*period + h.intn(period)
}
