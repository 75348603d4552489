package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// setAffinity restricts thread tid (0: the calling thread) to the given CPUs.
func setAffinity(tid int, m cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	m, err := getAffinity()
	if err != nil {
		return nil
	}
	var cpus []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

// pinSelf restricts every thread of this process, present and future, to the
// given CPUs. Threads inherit the mask of the thread that creates them, so
// setting every existing thread covers the ones the runtime starts later.
func pinSelf(cpus []int) error {
	m := maskOf(cpus)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// startPinned starts a child restricted to the given CPUs: a child inherits
// the affinity of the thread that forks it, so the calling thread takes the
// child's mask for the duration of the fork and then its own back.
func startPinned(cpus []int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(0, maskOf(cpus)); err != nil {
		return err
	}
	defer setAffinity(0, own)
	return start()
}
