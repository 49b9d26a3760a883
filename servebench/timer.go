package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper wakes an open-loop generator on time. time.Sleep would not: the
// runtime waits for its timers in epoll, whose timeout has millisecond
// resolution, so whenever the process is otherwise idle a generator would
// wake up to a millisecond late and the latency measured from the schedule
// would be the timer's, not the stack's. A sleeper instead reads a Linux
// timerfd through the runtime's poller, which wakes it when the kernel
// timer fires.
type sleeper struct {
	fd int
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes a File the runtime polls, so Read
	// parks the goroutine instead of blocking a thread.
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// until blocks until t.
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, first expiry
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
