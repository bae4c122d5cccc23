package main

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/promises"
)

// outcome of one request.
type outcome uint8

const (
	succeeded outcome = iota
	rejected          // a valid "no": the grant was refused
	failed            // transport or engine error, or a wrong answer
)

// opResult is one request as the generator saw it. Times are nanoseconds
// since epoch.
type opResult struct {
	kind     opKind
	outcome  outcome
	idle     bool // the worker was waiting for this request's send time
	intended int64
	start    int64
	end      int64
	req      uint64
}

// latency is measured from the intended send time, so a stall is charged
// to every request it delays.
func (r *opResult) latency() int64 { return r.end - r.intended }

// phase is one constant-rate stretch of the run.
type phase struct {
	rate    float64
	elapsed time.Duration
	cpu     time.Duration // process CPU time while the requests ran; 0 if unknown
	closed  bool          // closed loop: see runPhase
	ops     []opResult
	// cpuPerOp is, for a closed-loop phase, the process CPU time per
	// answered request in ms over each cpuWindow of the phase.
	cpuPerOp []float64
	// sessions still holding a promise when the phase ended, released
	// afterwards untimed.
	cleanup, cleanupFailed int
}

func (p *phase) count(o outcome) int {
	n := 0
	for i := range p.ops {
		if p.ops[i].outcome == o {
			n++
		}
	}
	return n
}

// sessionState is what a worker knows about one of its sessions.
type sessionState struct {
	id   string // granted promise id
	done bool   // no further steps run (rejected, failed, or committed)
}

// cpuWindow is the stretch of a closed-loop phase over which one CPU time
// per request is taken.
const cpuWindow = 200 * time.Millisecond

// runPhase drives the schedule open-loop: each worker sends its requests at
// their intended times, or as soon as it is free when it is behind.
// With closed > 0 it instead runs closed-loop for that long: each worker
// sends its next request as soon as the previous one is answered, and a
// request's intended time is the moment it is sent.
// Requests of traced phases carry a traceRef; reqBase numbers them.
func (st *stack) runPhase(s *schedule, rec *recorder, reqBase uint64, closed time.Duration) *phase {
	p := &phase{rate: s.rate, closed: closed > 0}
	states := make([]sessionState, len(s.sessions))
	results := make([][]opResult, workers)
	var wg sync.WaitGroup
	var answered atomic.Int64
	cpu0, _ := processCPU()
	t0 := time.Now().Add(2 * time.Millisecond)
	base := int64(t0.Sub(epoch))
	until := base + int64(closed)
	sampled := make(chan []float64, 1)
	if p.closed {
		go func() { sampled <- sampleCPU(&answered, until) }()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]opResult, 0, len(s.ops[w]))
			for i, op := range s.ops[w] {
				ss, state := &s.sessions[op.sess], &states[op.sess]
				if state.done {
					continue
				}
				r := opResult{kind: ss.kind(int(op.step)), intended: base + int64(op.at),
					req: reqBase + uint64(w)<<32 + uint64(i) + 1}
				if p.closed {
					if r.intended = since(); r.intended >= until {
						break
					}
				} else if r.intended > since() {
					if err := st.pacers[w].sleepUntil(r.intended); err != nil {
						st.ledger.failure("worker %d pacing: %v", w, err)
						time.Sleep(time.Duration(r.intended - since()))
					}
					r.idle = true
				}
				ctx := context.Background()
				var clientSpan int32
				if rec != nil {
					clientSpan = rec.begin("client", r.req, 0)
					ctx = context.WithValue(ctx, traceKey{}, traceRef{req: r.req, parent: clientSpan, kind: r.kind})
				}
				r.start = since()
				r.outcome = st.do(ctx, ss, state, r.kind)
				r.end = since()
				if rec != nil {
					rec.end(clientSpan)
				}
				if r.kind == opGrant && r.outcome == succeeded {
					st.ledger.add(heldEvent(state.id, ss.preds, r.end))
				}
				if r.kind == opCommit && r.outcome == succeeded {
					st.ledger.add(ledgerEvent{t: r.start, kind: evUnhold, id: state.id, preds: ss.preds})
					if ss.consume > 0 {
						st.ledger.add(ledgerEvent{t: r.end, kind: evConsume, pool: ss.preds[0].Pool, qty: ss.consume})
					}
				}
				out = append(out, r)
				answered.Add(1)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	p.elapsed = time.Since(t0)
	if cpu1, ok := processCPU(); ok {
		p.cpu = cpu1 - cpu0
	}
	if p.closed {
		p.cpuPerOp = <-sampled
	}
	for _, rs := range results {
		p.ops = append(p.ops, rs...)
	}

	// Hand back what unfinished sessions still hold, so every phase starts
	// from the same state.
	ctx := context.Background()
	for i := range states {
		if states[i].done || states[i].id == "" {
			continue
		}
		p.cleanup++
		t := since()
		if err := st.target.Release(ctx, benchClient, states[i].id); err != nil {
			p.cleanupFailed++
			st.ledger.add(ledgerEvent{t: t, kind: evUncertain, id: states[i].id, preds: s.sessions[i].preds})
			continue
		}
		st.ledger.add(ledgerEvent{t: t, kind: evUnhold, id: states[i].id, preds: s.sessions[i].preds})
	}
	return p
}

// sampleCPU reads the process CPU time and the answered-request count at
// every cpuWindow until the time until, and returns the CPU ms per request
// of each window.
func sampleCPU(answered *atomic.Int64, until int64) []float64 {
	var out []float64
	cpu0, _ := processCPU()
	n0 := answered.Load()
	for next := since() + int64(cpuWindow); next <= until; next += int64(cpuWindow) {
		time.Sleep(time.Duration(next - since()))
		cpu1, ok := processCPU()
		n1 := answered.Load()
		if ok && n1 > n0 {
			out = append(out, float64(cpu1-cpu0)/1e6/float64(n1-n0))
		}
		cpu0, n0 = cpu1, n1
	}
	return out
}

// do sends one request of a session and classifies the answer.
func (st *stack) do(ctx context.Context, ss *sessionSpec, state *sessionState, kind opKind) outcome {
	switch kind {
	case opGrant:
		resp, err := st.target.Execute(ctx, promises.Request{Client: benchClient,
			PromiseRequests: []promises.PromiseRequest{{Predicates: ss.preds, Duration: holdDuration}}})
		if err != nil {
			state.done = true
			st.ledger.add(ledgerEvent{t: since(), kind: evUncertain, preds: ss.preds})
			st.ledger.failure("grant: %v", err)
			return failed
		}
		pr := resp.Promises[0]
		if !pr.Accepted {
			state.done = true
			return rejected
		}
		state.id = pr.PromiseID
		return succeeded

	case opCheck:
		ids := []string{state.id}
		for _, x := range ss.extra {
			ids = append(ids, st.ledger.standing[x%len(st.ledger.standing)])
		}
		errs, err := st.target.CheckBatch(ctx, benchClient, ids)
		if err != nil {
			st.ledger.failure("check: %v", err)
			return failed
		}
		for i, e := range errs {
			if e != nil {
				// A held promise must stay usable: nothing in these workloads
				// expires, preempts or violates one.
				st.ledger.problem("check: held promise %s reported unusable: %v", ids[i], e)
				return failed
			}
		}
		return succeeded

	default:
		state.done = true
		if ss.consume > 0 {
			resp, err := st.target.Execute(ctx, promises.Request{Client: benchClient,
				Env:          []promises.EnvEntry{{PromiseID: state.id, Release: true}},
				ActionName:   "adjust-pool",
				ActionParams: map[string]string{"pool": ss.preds[0].Pool, "delta": strconv.FormatInt(-ss.consume, 10)},
			})
			if err == nil {
				err = resp.ActionErr
			}
			if err != nil {
				st.ledger.add(ledgerEvent{t: since(), kind: evUncertain, id: state.id, preds: ss.preds})
				st.ledger.failure("commit %s: %v", state.id, err)
				return failed
			}
			return succeeded
		}
		if err := st.target.Release(ctx, benchClient, state.id); err != nil {
			st.ledger.add(ledgerEvent{t: since(), kind: evUncertain, id: state.id, preds: ss.preds})
			st.ledger.failure("release %s: %v", state.id, err)
			return failed
		}
		return succeeded
	}
}
