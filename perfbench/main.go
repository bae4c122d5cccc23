// Command perfbench is the repository's end-to-end benchmark. It serves the
// promise engine over a real loopback HTTP listener, assembled from the
// constructors cmd/promised uses, and drives it from the same process with
// a seeded open-loop generator: requests go out at fixed intended times on
// two workers with one connection each, and every latency is measured from
// the intended send time.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures set-up time, then grant/check/commit latency
// and peak heap at the workload's nominal rate, then CPU time per request
// with the two workers sending closed-loop, then climbs the workload's rate
// ladder for max_rps, the highest rate whose grant p90 meets the
// workload's limit. With --trace 1 it runs the nominal
// rate twice, untraced then traced, and reports per-layer counters and
// self times plus the tracing overhead. Every run checks the
// engine's outputs and fails when they are wrong. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": u}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runDeadline bounds a whole run; past it the process exits without a
// result rather than hang.
const runDeadline = 175 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for resources and request schedule")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for data directories and span dumps")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run deadline exceeded")
		os.Exit(3)
	})
	rep, err := run(config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workdir: *workdir, sc: defaultScale, out: os.Stdout})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type config struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	workdir string
	sc      scale
	wrap    wrapFunc
	out     io.Writer
	// ladder, when set, replaces the workload's rate ladder (tests); its
	// first rung is the nominal rate.
	ladder []float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// count folds a phase's requests into the totals.
func (r *report) count(p *phase) {
	r.Attempted += len(p.ops) + p.cleanup
	r.Failed += p.count(failed) + p.cleanupFailed
}
