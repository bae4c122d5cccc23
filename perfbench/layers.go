package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/protocol"
)

// runTraced runs the nominal rate untraced, then traced, and reports the
// per-layer metrics: counters and runtime deltas from the untraced phase,
// self times from the traced one, and the difference as tracing overhead.
func runTraced(cfg config, st *stack, rep *report, rec *recorder, nominal float64, d time.Duration, runPhase phaseRunner) error {
	w := cfg.w
	stats0, rt0, acc0, bytes0 := st.stats(), readRuntime(), st.accepts(), st.dataBytes()
	for _, n := range st.nodes {
		n.watcher.take()
		n.watcher.armed.Store(true)
	}
	u := runPhase("untraced", nominal, d, nil)
	for _, n := range st.nodes {
		n.watcher.armed.Store(false)
	}
	stats1, rt1, acc1, bytes1 := st.stats(), readRuntime(), st.accepts(), st.dataBytes()
	st.rt.take()
	t := runPhase("traced", nominal, d, rec)
	calls, reqBytes, respBytes, bodies := st.rt.take()

	ops := float64(len(u.ops))
	grants, mutations := 0, 0
	for i := range u.ops {
		r := &u.ops[i]
		if r.kind == opGrant {
			grants++
		}
		if r.outcome == succeeded && r.kind != opCheck {
			mutations++
		}
	}
	mutations += u.cleanup - u.cleanupFailed

	// Engine counters (Stats deltas over the untraced phase).
	dGrants, dRej := stats1.Grants-stats0.Grants, stats1.Rejections-stats0.Rejections
	rep.set("engine.accept_ratio", ratio(int(dGrants), int(dGrants+dRej)), "ratio")
	rep.set("engine.deadlock_retries_per_op", float64(stats1.DeadlockRetries-stats0.DeadlockRetries)/ops, "count")
	rep.set("engine.prefilter_skipped_per_grant", float64(stats1.PrefilterSkipped-stats0.PrefilterSkipped)/float64(max(grants, 1)), "count")
	rep.set("engine.imbalance", stats1.Imbalance, "ratio")

	// Go runtime, process-wide: the generator and client share the process
	// with the server, so these include their allocations too.
	rep.set("go.allocs_per_op", float64(rt1.allocObjects-rt0.allocObjects)/ops, "count")
	rep.set("go.alloc_bytes_per_op", float64(rt1.allocBytes-rt0.allocBytes)/ops, "bytes")
	rep.set("go.gc_cpu_frac", (rt1.gcCPU-rt0.gcCPU)/max(rt1.totalCPU-rt0.totalCPU, 1e-9), "ratio")

	rep.set("transport.accepts_per_op", float64(acc1-acc0)/ops, "count")
	rep.set("wal.bytes_per_mutation", float64(bytes1-bytes0)/float64(max(mutations, 1)), "bytes")

	var events, gaps int64
	var lag []float64
	for _, n := range st.nodes {
		e, g, l := n.watcher.take()
		events, gaps, lag = events+e, gaps+g, append(lag, l...)
	}
	rep.set("events.per_mutation", float64(events)/float64(max(mutations, 1)), "count")
	rep.set("events.lag_us.p50", median(lag), "us")
	rep.set("events.lag_us.p99", quantile(lag, 0.99), "us")
	rep.set("events.gaps", float64(gaps), "count")
	rep.set("gen.late_ms.p99", quantile(lateness(u.ops), 0.99), "ms")

	// Protocol: exact byte counts per HTTP request, and codec time on the
	// run's own envelopes.
	for _, k := range []opKind{opGrant, opCheck, opCommit} {
		rep.set("protocol.req_bytes."+k.String(), float64(reqBytes[k])/float64(max(calls[k], 1)), "bytes")
		rep.set("protocol.resp_bytes."+k.String(), float64(respBytes[k])/float64(max(calls[k], 1)), "bytes")
	}
	enc, dec := codecTimes(bodies)
	rep.set("protocol.encode_us", enc, "us")
	rep.set("protocol.decode_us", dec, "us")

	// Self times from the spans of the traced phase.
	spans := rec.snapshot()
	b := breakdown(spans, t.ops)
	rep.set("client.queue_ms.p50", median(b.queue[opGrant]), "ms")
	rep.set("client.queue_ms.p99", quantile(b.queue[opGrant], 0.99), "ms")
	for _, k := range []opKind{opGrant, opCheck, opCommit} {
		rep.set("client.self_us."+k.String(), median(b.clientSelf[k]), "us")
		rep.set("transport.self_us."+k.String(), median(b.transportSelf[k]), "us")
		rep.set("engine."+k.String()+"_us.p50", median(b.engine[k]), "us")
		rep.set("engine."+k.String()+"_us.p99", quantile(b.engine[k], 0.99), "us")
	}
	rep.set("cluster.node_calls_per_grant", mean(b.nodeCalls), "count")
	rep.set("cluster.node.self_us", median(b.nodeSelf), "us")

	untraced := median(latencies(u.ops, opGrant))
	traced := median(latencies(t.ops, opGrant))
	parts := median(b.queue[opGrant]) + (median(b.clientSelf[opGrant])+median(b.transportSelf[opGrant])+median(b.engine[opGrant]))/1e3
	rep.set("trace.overhead_ms", traced-untraced, "ms")
	rep.set("trace.accounted_ratio", parts/untraced, "ratio")

	fmt.Fprintf(cfg.out, "grant p50: untraced %s ms, traced %s ms (tracing overhead %s ms)\n", fmtF(untraced), fmtF(traced), fmtF(traced-untraced))
	fmt.Fprintf(cfg.out, "grant p50 breakdown: client queue %s ms + client self %s us + transport self %s us + engine %s us = %s ms, %s of untraced p50: %s\n",
		fmtF(median(b.queue[opGrant])), fmtF(median(b.clientSelf[opGrant])), fmtF(median(b.transportSelf[opGrant])),
		fmtF(median(b.engine[opGrant])), fmtF(parts), fmtF(parts/untraced), within(parts/untraced, 0.10))
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(cfg.out, "%-34s %12s %s\n", n, fmtF(rep.Metrics[n].Value), rep.Metrics[n].Unit)
	}
	return writeSpans(filepath.Join(cfg.workdir, "spans-"+w.name+".tsv"), spans)
}

func within(r, tol float64) string {
	if r >= 1-tol && r <= 1+tol {
		return fmt.Sprintf("within %g%%", tol*100)
	}
	return fmt.Sprintf("NOT within %g%%", tol*100)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// layerTimes are per-request samples by operation kind: the client's queue
// (ms) and the self times (us) of client, transport server and engine.
type layerTimes struct {
	queue, clientSelf, transportSelf, engine [3][]float64
	nodeCalls                                []float64 // server spans per grant
	nodeSelf                                 []float64 // per server span of a grant, us
}

// breakdown splits each traced request into its layers. A layer's self time
// is its span minus the part of it that its child spans cover.
func breakdown(spans []span, ops []opResult) *layerTimes {
	children := map[int32][]*span{}
	client := map[uint64]*span{}
	for i := range spans {
		s := &spans[i]
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		} else if s.name == "client" {
			client[s.req] = s
		}
	}
	b := &layerTimes{}
	for i := range ops {
		r := &ops[i]
		c, ok := client[r.req]
		if !ok || c.end == 0 || r.outcome == failed {
			continue
		}
		k := r.kind
		b.queue[k] = append(b.queue[k], float64(r.start-r.intended)/1e6)
		servers := children[c.id]
		b.clientSelf[k] = append(b.clientSelf[k], float64(c.end-c.start-covered(servers))/1e3)
		var tself, eng float64
		for _, s := range servers {
			engines := children[s.id]
			self := float64(s.end-s.start-covered(engines)) / 1e3
			tself += self
			for _, e := range engines {
				eng += float64(e.end-e.start) / 1e3
			}
			if k == opGrant {
				b.nodeSelf = append(b.nodeSelf, self)
			}
		}
		b.transportSelf[k] = append(b.transportSelf[k], tself)
		b.engine[k] = append(b.engine[k], eng)
		if k == opGrant {
			b.nodeCalls = append(b.nodeCalls, float64(len(servers)))
		}
	}
	return b
}

// covered is the length of the union of the spans' intervals.
func covered(spans []*span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.start, s.end}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// codecTimes times protocol.Decode and protocol.Encode on captured
// envelopes and returns the median microseconds per envelope.
func codecTimes(bodies [][]byte) (encUS, decUS float64) {
	const reps = 20
	var enc, dec []float64
	for _, body := range bodies {
		env, err := protocol.Decode(bytes.NewReader(body))
		if err != nil {
			continue
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			_, _ = protocol.Decode(bytes.NewReader(body))
		}
		dec = append(dec, float64(time.Since(t0))/1e3/reps)
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			_ = protocol.Encode(io.Discard, env)
		}
		enc = append(enc, float64(time.Since(t0))/1e3/reps)
	}
	return median(enc), median(dec)
}

// writeSpans dumps the spans as tab-separated text: name, request, id,
// parent, start and end in nanoseconds.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, strings.Join([]string{"name", "req", "id", "parent", "start_ns", "end_ns"}, "\t"))
	for _, s := range spans {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\t%d\n", s.name, s.req, s.id, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
