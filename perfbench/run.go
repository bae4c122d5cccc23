package main

import (
	"fmt"
	"runtime"
	"time"
)

// warmup runs before anything is measured, so connections, pools and the
// heap reach their steady state.
const warmup = time.Second

// run executes one benchmark run and returns its report. An error means the
// run could not be carried out; wrong outputs are reported as
// Correct=false.
func run(cfg config) (*report, error) {
	w := cfg.w
	m := w.build(cfg.seed, cfg.sc)
	rep := &report{Metrics: map[string]metric{}}
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}

	// Set up several times; the median is setup_s. Only the last stack is
	// kept for measuring.
	var setups []float64
	var st *stack
	for i := 0; i < cfg.sc.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := openStack(w, m, stackOptions{workdir: cfg.workdir, rec: rec, wrap: cfg.wrap, rep: i})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.sc.setupReps-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			continue
		}
		st = s
	}
	closed := false
	defer func() {
		if !closed {
			_ = st.close() // the run already failed; its error is the one reported
		}
	}()
	fmt.Fprintf(cfg.out, "workload %s seed %d: set-up %v s (median of %d)\n", w.name, cfg.seed, fmtF(median(setups)), len(setups))

	phaseSeed := cfg.seed * 1_000_003
	nextSchedule := func(rate float64, d time.Duration) *schedule {
		phaseSeed++
		return newSchedule(m, phaseSeed, rate, d, cfg.sc.slots)
	}
	var reqBase uint64
	exec := func(label string, s *schedule, traced *recorder, closed time.Duration) *phase {
		runtime.GC()
		p := st.runPhase(s, traced, reqBase, closed)
		reqBase += 1 << 40
		rep.count(p)
		printPhase(cfg, label, p)
		return p
	}
	runPhase := func(label string, rate float64, d time.Duration, traced *recorder) *phase {
		return exec(label, nextSchedule(rate, d), traced, 0)
	}
	runClosed := func(label string, d time.Duration) *phase {
		return exec(label, nextSchedule(closedRate, d), nil, d)
	}

	nominal := w.nominal
	if cfg.ladder != nil {
		nominal = cfg.ladder[0]
	}
	runPhase("warmup", nominal, warmup, nil)
	measure := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		if err := runTraced(cfg, st, rep, rec, nominal, measure/2, runPhase); err != nil {
			return nil, err
		}
	} else {
		if err := runEndToEnd(cfg, st, rep, nominal, measure, runPhase, runClosed, median(setups)); err != nil {
			return nil, err
		}
	}

	rep.problems = st.verify()
	if w.durable {
		d, problems := st.recoverCheck()
		rep.problems = append(rep.problems, problems...)
		fmt.Fprintf(cfg.out, "recover_s %s s (reopen of a crash copy of the data dir, with the durability check)\n", fmtF(d.Seconds()))
		if cfg.trace {
			rep.set("wal.recover_s", d.Seconds(), "s")
		}
	} else if cfg.trace {
		rep.set("wal.recover_s", 0, "s")
	}
	closed = true
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}
	rep.Correct = len(rep.problems) == 0
	if st.ledger.nfail > 0 {
		fmt.Fprintf(cfg.out, "request failures: %d, e.g. %s\n", st.ledger.nfail, summary(st.ledger.failures))
	}
	if rep.Correct {
		fmt.Fprintln(cfg.out, "output checks: pass")
	} else {
		fmt.Fprintf(cfg.out, "output checks: FAIL: %s\n", summary(rep.problems))
	}
	fmt.Fprintf(cfg.out, "error_ratio %s (failed %d of %d attempted)\n", fmtF(ratio(rep.Failed, rep.Attempted)), rep.Failed, rep.Attempted)
	return rep, nil
}

type phaseRunner func(label string, rate float64, d time.Duration, traced *recorder) *phase

// closedRate is the rate a closed-loop phase's schedule is planned at:
// about twice as many requests as two workers sent on the reference host
// on the fastest workload.
const closedRate = 20000

// endToEnd are the metrics of a --trace 0 result line, as BENCHMARK.json
// lists them. Latencies and max_rps are printed on every run but left out:
// on the reference host (2 vCPUs whose hypervisor took 2 to 22% of the CPU
// time during a run) the spread of p50 latency between runs of one build
// reached half its median, and that of p90 and max_rps more, wider than any
// bound a regression gate can use. CPU time per request at the nominal
// rate is printed but left out too: much of it is the cost of waking idle
// threads between requests, so it fell when a busy host made requests
// queue, and on a shared host its spread between runs reached its whole
// median. cpu_ms_per_op is therefore taken closed-loop, where each worker
// sends as soon as it is answered and the process is rarely idle; time the
// hypervisor steals is not counted in it.
var endToEnd = []string{"setup_s", "cpu_ms_per_op", "heap_mb"}

// genLateBound caps the generator's own lateness (p99 at the nominal rate)
// for a run's latencies to count.
const genLateBound = 2 * time.Millisecond

// Shares of the measured time: the nominal rate (latencies and peak heap),
// then the closed-loop phase (CPU time per request); the rest climbs the
// ladder.
const (
	nominalShare = 0.4
	closedShare  = 0.4
)

// runEndToEnd measures the nominal rate, then CPU time per request
// closed-loop, then climbs the rate ladder; the nominal phase is the first
// rung.
func runEndToEnd(cfg config, st *stack, rep *report, nominal float64, measure time.Duration, runPhase phaseRunner,
	runClosed func(string, time.Duration) *phase, setup float64) error {
	w := cfg.w
	rep.set("setup_s", setup, "s")
	steal := stealMeter()
	heap := startHeapPeak()
	nomTime := time.Duration(float64(measure) * nominalShare)
	nom := runPhase("nominal", nominal, nomTime, nil)
	rep.set("heap_mb", heap.end(), "MiB")
	fmt.Fprintf(cfg.out, "host steal during the nominal phase: %s\n", steal())
	for _, k := range []opKind{opGrant, opCheck, opCommit} {
		lat := latencies(nom.ops, k)
		if len(lat) < tailMin*nominalWindows {
			fmt.Fprintf(cfg.out, "warning: %d %s samples; a window's p90 has fewer than ten beyond it\n", len(lat), k)
		}
		rep.set(k.String()+"_p50_ms", medianOf(windowed(nom.ops, k, 0.5, nominalWindows, false)), "ms")
		rep.set(k.String()+"_p90_ms", medianOf(windowed(nom.ops, k, tailQ, nominalWindows, false)), "ms")
	}
	late := quantile(lateness(nom.ops), 0.99)
	valid := "valid"
	if late > float64(genLateBound)/1e6 {
		valid = "INVALID: the generator itself ran late, so these latencies are not the system's"
	}
	fmt.Fprintf(cfg.out, "generator late p99 %s ms (bound %v): %s\n", fmtF(late), genLateBound, valid)
	if nom.cpu > 0 {
		fmt.Fprintf(cfg.out, "CPU time per request at the nominal rate: %s ms (not gated)\n", fmtF(float64(nom.cpu)/1e6/float64(len(nom.ops))))
	}

	steal = stealMeter()
	sat := runClosed("closed", time.Duration(float64(measure)*closedShare))
	if len(sat.cpuPerOp) == 0 {
		return fmt.Errorf("cannot read the process's CPU time")
	}
	rep.set("cpu_ms_per_op", median(sat.cpuPerOp), "ms")
	fmt.Fprintf(cfg.out, "closed loop: %s requests/s; CPU time per request over %d windows of %v: p25 %s, median %s, p75 %s ms; host steal %s\n",
		fmtF(float64(len(sat.ops))/sat.elapsed.Seconds()), len(sat.cpuPerOp), cpuWindow,
		fmtF(quantile(sat.cpuPerOp, 0.25)), fmtF(median(sat.cpuPerOp)), fmtF(quantile(sat.cpuPerOp, 0.75)), steal())

	ladder := w.ladder
	if cfg.ladder != nil {
		ladder = cfg.ladder
	}
	// max_rps is the highest rung that meets the limit. Rungs are climbed
	// in order; a scheduling stall can fail one rung below the knee, so the
	// climb ends only after two misses in a row.
	best, misses := 0.0, 0
	rung := time.Duration(float64(measure)*(1-nominalShare-closedShare)) / time.Duration(max(len(ladder)-1, 1))
	for i, rate := range ladder {
		p := nom
		if i > 0 {
			p = runPhase("rung", rate, rung, nil)
		}
		ok, tail, why := rungVerdict(p, w.limit)
		fmt.Fprintf(cfg.out, "rung %s/s: grant p90 %s ms vs limit %v: %s\n", fmtF(rate), fmtF(tail), w.limit, verdict(ok, why))
		if !ok {
			if misses++; misses == 2 {
				break
			}
			continue
		}
		best, misses = rate, 0
	}
	rep.set("max_rps", best, "1/s")
	for _, name := range []string{"setup_s", "grant_p50_ms", "grant_p90_ms", "check_p50_ms", "check_p90_ms",
		"commit_p50_ms", "commit_p90_ms", "max_rps", "cpu_ms_per_op", "heap_mb"} {
		fmt.Fprintf(cfg.out, "%-14s %12s %s\n", name, fmtF(rep.Metrics[name].Value), rep.Metrics[name].Unit)
	}
	all := rep.Metrics
	rep.Metrics = map[string]metric{}
	for _, name := range endToEnd {
		rep.Metrics[name] = all[name]
	}
	return nil
}

func verdict(ok bool, why string) string {
	if ok {
		return "meets"
	}
	return "misses (" + why + ")"
}

func printPhase(cfg config, label string, p *phase) {
	late := lateness(p.ops)
	grants := latencies(p.ops, opGrant)
	fmt.Fprintf(cfg.out, "%-8s %7s/s %5.2fs sent %d ok %d rejected %d failed %d (+%d cleanup) grant p50 %s p90 %s p99 %s ms, gen late p99 %s ms\n",
		label, fmtF(p.rate), p.elapsed.Seconds(), len(p.ops), p.count(succeeded), p.count(rejected), p.count(failed), p.cleanup,
		fmtF(median(grants)), fmtF(quantile(grants, tailQ)), fmtF(quantile(grants, 0.99)), fmtF(quantile(late, 0.99)))
}

func fmtF(v float64) string { return fmt.Sprintf("%.4g", v) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
