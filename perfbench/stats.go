package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQ is the tail quantile reported; tailMin is the sample count at which
// at least ten samples lie beyond it. On the reference host (2 vCPUs shared
// by client and server) p95 and p99 moved by half their value between runs
// of one build, with garbage-collection and scheduling stalls; p90 moved
// least of the tails.
const (
	tailQ   = 0.90
	tailMin = 100
)

// rungSettle is the share of a rung left out of its verdict.
const rungSettle = 0.3

// latencies returns the latencies in ms of answered requests of one kind.
func latencies(ops []opResult, kind opKind) []float64 {
	var out []float64
	for i := range ops {
		if ops[i].kind == kind && ops[i].outcome != failed {
			out = append(out, float64(ops[i].latency())/1e6)
		}
	}
	return out
}

// nominalWindows and rungWindows are how many equal stretches of intended
// time a nominal phase and a ladder rung are cut into for their latency
// quantiles.
const (
	nominalWindows = 10
	rungWindows    = 5
)

// windowed cuts ops into n windows of equal intended time and returns,
// per window, the q-quantile latency of one kind in ms (NaN for a window
// without such requests). With misses set, failed requests count as
// infinitely late; otherwise they are left out.
func windowed(ops []opResult, kind opKind, q float64, n int, misses bool) []float64 {
	lo, width := windowSpan(ops, n)
	buckets := make([][]float64, n)
	for i := range ops {
		r := &ops[i]
		if r.kind != kind || (r.outcome == failed && !misses) {
			continue
		}
		l := float64(r.latency()) / 1e6
		if r.outcome == failed {
			l = math.Inf(1)
		}
		b := min(int(float64(r.intended-lo)/width), n-1)
		buckets[b] = append(buckets[b], l)
	}
	out := make([]float64, n)
	for i, b := range buckets {
		out[i] = math.NaN()
		if len(b) > 0 {
			out[i] = quantile(b, q)
		}
	}
	return out
}

// windowSpan returns the start and width, in ns, of n equal windows over
// the ops' intended times.
func windowSpan(ops []opResult, n int) (lo int64, width float64) {
	if len(ops) == 0 {
		return 0, 1
	}
	lo, hi := ops[0].intended, ops[0].intended
	for i := range ops {
		lo, hi = min(lo, ops[i].intended), max(hi, ops[i].intended)
	}
	return lo, float64(hi-lo+1) / float64(n)
}

// medianOf returns the median of xs, skipping NaN.
func medianOf(xs []float64) float64 {
	var v []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			v = append(v, x)
		}
	}
	return median(v)
}

// lateness returns, in ms, how late the generator sent each request it
// was waiting for: timer and scheduler slack, not queueing behind a busy
// worker.
func lateness(ops []opResult) []float64 {
	var out []float64
	for i := range ops {
		if ops[i].idle {
			out = append(out, float64(ops[i].start-ops[i].intended)/1e6)
		}
	}
	return out
}

// rungVerdict decides whether a phase met the workload's latency limit.
// The first rungSettle of the phase, in intended time, is the system
// adjusting to the new rate and is not judged. Over the rest, the grant
// p90 — the median over rungWindows windows, with failed grants counted as
// misses — must be within the limit, and the backlog must not grow: the
// last tenth of requests must not start later than the limit after their
// intended time.
func rungVerdict(p *phase, limit time.Duration) (ok bool, tail float64, why string) {
	byIntent := append([]opResult(nil), p.ops...)
	sort.Slice(byIntent, func(i, j int) bool { return byIntent[i].intended < byIntent[j].intended })
	byIntent = byIntent[int(float64(len(byIntent))*rungSettle):]
	tail = medianOf(windowed(byIntent, opGrant, tailQ, rungWindows, true))
	lim := float64(limit) / 1e6
	if tail > lim {
		return false, tail, "grant tail over limit"
	}
	var queue []float64
	for _, r := range byIntent[len(byIntent)*9/10:] {
		queue = append(queue, float64(r.start-r.intended)/1e6)
	}
	if median(queue) > lim {
		return false, tail, "backlog growing"
	}
	return true, tail, ""
}

// stealMeter starts measuring the share of the machine's CPU time the
// hypervisor steals; the function it returns reports the share so far.
func stealMeter() func() string {
	steal0, ticks0, _ := cpuTicks()
	return func() string {
		steal1, ticks1, ok := cpuTicks()
		if !ok || ticks1 <= ticks0 {
			return "unknown"
		}
		return fmtF(100*(steal1-steal0)/(ticks1-ticks0)) + "% of CPU time"
	}
}

// runtimeSample reads the process-wide runtime counters the report uses.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// heapPeak samples the bytes of live and not-yet-swept heap objects until
// stopped, and reports the largest reading.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the sampler, read after done closes
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
