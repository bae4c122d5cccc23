package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

var testScale = scale{pools: 200, stock: 1 << 20, rooms: 200, standing: 8, slots: 2, setupReps: 1}

func TestScheduleIsSeeded(t *testing.T) {
	for _, w := range workloads {
		enc := func(seed int64) []byte {
			return newSchedule(w.build(seed, testScale), seed, w.nominal, time.Second, testScale.slots).encode()
		}
		a, b := enc(7), enc(7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", w.name)
		}
		if bytes.Equal(a, enc(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
		if n := bytes.Count(a, []byte("\n")); n != int(w.nominal) {
			t.Errorf("%s: %d requests in one second at %v/s", w.name, n, w.nominal)
		}
	}
}

func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(config{w: w, seed: 3, seconds: 1, trace: trace, workdir: t.TempDir(),
				sc: testScale, out: io.Discard, ladder: w.ladder[:1]})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct {
				t.Errorf("%s trace=%v: output checks failed: %s", w.name, trace, summary(rep.problems))
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d requests failed", w.name, trace, rep.Failed, rep.Attempted)
			}
			want := endToEnd
			if trace {
				want = []string{"engine.grant_us.p50", "client.self_us.grant", "protocol.req_bytes.grant"}
			}
			for _, name := range want {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, name, rep.Metrics[name].Value)
				}
			}
		}
	}
}

// overcommitting answers one grant the engine refused as granted, under a
// made-up promise id.
type overcommitting struct {
	transport.Engine
	once sync.Once
}

func (o *overcommitting) Execute(ctx context.Context, req core.Request) (*core.Response, error) {
	resp, err := o.Engine.Execute(ctx, req)
	if err != nil || len(resp.Promises) != 1 || resp.Promises[0].Accepted {
		return resp, err
	}
	o.once.Do(func() {
		resp.Promises[0] = core.PromiseResponse{Accepted: true, PromiseID: "prm0-999999", Expires: time.Now().Add(holdDuration)}
	})
	return resp, nil
}

func TestOvercommitFailsOutputCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	w, err := findWorkload("quantity-churn")
	if err != nil {
		t.Fatal(err)
	}
	// One pool with a single unit: most grants are refused, which is a
	// valid answer, so only the planted grant is an over-commit.
	sc := testScale
	sc.pools, sc.stock, sc.standing = 1, 1, 0
	base := config{w: w, seed: 5, seconds: 1, workdir: t.TempDir(), sc: sc, out: io.Discard, ladder: w.ladder[:1]}

	rep, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("honest engine failed the output checks: %s", summary(rep.problems))
	}

	bad := base
	bad.wrap = func(e transport.Engine) transport.Engine { return &overcommitting{Engine: e} }
	rep, err = run(bad)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct {
		t.Fatal("an over-committed grant passed the output checks")
	}
	if !strings.Contains(summary(rep.problems), "prm0-999999") {
		t.Errorf("problems do not name the planted promise: %s", summary(rep.problems))
	}
}

func TestCovered(t *testing.T) {
	spans := []*span{{start: 0, end: 10}, {start: 5, end: 12}, {start: 20, end: 25}}
	if got := covered(spans); got != 17 {
		t.Fatalf("covered = %d, want 17", got)
	}
}
