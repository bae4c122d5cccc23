package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// pacer waits for intended send times. The runtime's own timers round an
// idle wait below a millisecond up to a whole one, which would be charged to
// every request's latency; a timerfd wakes the netpoller at the instant
// instead, to within tens of microseconds, while the worker's processor is
// free for the server.
type pacer struct {
	fd int
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks until t (nanoseconds since epoch).
func (p *pacer) sleepUntil(t int64) error {
	d := t - since()
	if d <= 0 {
		return nil
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
