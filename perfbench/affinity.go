package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement for the serving workloads: the daemon runs on CPU 0 and
// the load generator on the others, so the two never compete for a CPU
// and a run does not depend on where the scheduler happened to put them.
// With a single CPU nothing is pinned.

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(lo, hi int) cpuMask {
	var m cpuMask
	for c := lo; c < hi && c < 1024; c++ {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// setAffinity pins one thread (tid 0 = the calling thread).
func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
	}
	return nil
}

// pinProcess pins every thread of this process to m. Threads the runtime
// starts later are cloned from pinned threads and inherit the mask.
func pinProcess(m cpuMask) error {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, e := range ents {
		tid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil {
			return err
		}
	}
	return nil
}

// placement is the CPU split of a serving run.
type placement struct {
	on        bool
	daemon    cpuMask
	generator cpuMask
}

func newPlacement() placement {
	n := runtime.NumCPU()
	if n < 2 {
		return placement{}
	}
	return placement{on: true, daemon: maskOf(0, 1), generator: maskOf(1, n)}
}

// start starts cmd with the daemon's mask: the child inherits the mask of
// the thread that forks it, so this thread holds it for the fork only.
func (p placement) start(cmd *exec.Cmd) error {
	if !p.on {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.daemon); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, p.generator); err == nil {
		err = rerr
	}
	return err
}
