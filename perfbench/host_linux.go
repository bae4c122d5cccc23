package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTicks reads the machine's CPU time counters from /proc/stat: the
// ticks the hypervisor stole from this machine and all ticks. Latency read
// while the host takes CPU time away is not the program's alone.
func cpuTicks() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, total > 0
}

// processCPU returns the CPU time this process has used, user and system.
// Time the hypervisor steals is not in it.
func processCPU() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
