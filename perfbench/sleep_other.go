//go:build !linux

package main

import "time"

// pacer waits for intended send times with the runtime's timers.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// sleepUntil blocks until t (nanoseconds since epoch).
func (p *pacer) sleepUntil(t int64) error {
	time.Sleep(time.Duration(t - since()))
	return nil
}

func (p *pacer) close() error { return nil }
