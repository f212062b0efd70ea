package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark's clocks are CPU clocks, not wall clocks. The host it was
// built on is a shared VM whose hypervisor steals up to a third of a vCPU
// at times; wall time then swung 2× between identical runs while CPU
// time, which excludes stolen time, moved a few percent.

const (
	clockProcessCPUTimeID = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTimeID  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno)) // Linux has supported both since 2.6.12
	}
	return time.Duration(ts.Nano())
}

// processCPU returns this process's CPU time, all threads: the engine's
// own work, the epoch-store persister's encode, write and sync, and Go's
// GC workers, but no time a thread waited or was stolen. The end-to-end
// timings use it; a replay is a fresh process, so it holds nothing else.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTimeID) }

// threadCPU returns the calling OS thread's CPU time. A replay locks its
// goroutine to one thread, so this is the engine thread's own time: its
// decode, ingest, epoch-close and GC-assist work. The per-layer stage
// split uses it, so work on other threads is never charged to a stage.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTimeID) }

// procCPU returns a running process's CPU time: the sum of its threads'
// run time, in nanoseconds, from /proc/<pid>/task/*/schedstat.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s/%s/schedstat: empty", dir, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}
