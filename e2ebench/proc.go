package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// clockTicks is Linux's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every mainstream architecture.
const clockTicks = 100

// procCPU reports a process's user plus system CPU time in seconds.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may contain spaces; the
	// fields after it are space-separated, utime and stime being the
	// 12th and 13th of them.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := bytes.Fields(b[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseUint(string(f[11]), 10, 64)
	st, err2 := strconv.ParseUint(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB reports a process's VmHWM, its resident-set high-water mark,
// in MiB. pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(v)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(f[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// selfCPU reports this process's user plus system CPU time in seconds,
// at rusage's microsecond resolution.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
