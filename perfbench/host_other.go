//go:build !linux

package main

import "time"

// cpuTicks is unavailable off Linux.
func cpuTicks() (steal, total float64, ok bool) { return 0, 0, false }

// processCPU is unavailable off Linux.
func processCPU() (time.Duration, bool) { return 0, false }
