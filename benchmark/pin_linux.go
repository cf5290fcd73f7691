package main

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinAndReexec restricts the calling thread to the highest-numbered CPU it
// is allowed on and replaces the process image with itself. exec keeps the
// calling thread's affinity, so the new copy starts single-threaded on that
// one CPU: its Go runtime sizes GOMAXPROCS to 1 and every child it spawns
// inherits the mask. It returns only on failure.
func pinAndReexec() error {
	runtime.LockOSThread()
	var mask [16]uint64 // 1024 CPUs
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for w := int(n)/8 - 1; w >= 0 && cpu < 0; w-- {
		if mask[w] != 0 {
			cpu = w*64 + 63 - bits.LeadingZeros64(mask[w])
		}
	}
	if cpu < 0 {
		return errors.New("empty CPU affinity mask")
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
}
