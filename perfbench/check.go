package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/promises"
)

// ledger is the client's account of what it was promised and consumed:
// every acknowledged grant, every release or commit sent, every
// acknowledged consumption. The output checks compare it with the engine.
type ledger struct {
	seeded   map[string]int64 // pool -> units seeded
	standing []string         // promise ids held for the whole run

	mu       sync.Mutex
	events   []ledgerEvent
	problems []string // wrong answers
	failures []string // first few request errors, for diagnosis
	nfail    int
}

type evKind uint8

const (
	evHold      evKind = iota // grant acknowledged (t = ack time)
	evUnhold                  // release or commit sent (t = send time)
	evConsume                 // consumption acknowledged (t = ack time)
	evUncertain               // a request on these resources failed
)

type ledgerEvent struct {
	t     int64
	kind  evKind
	id    string
	preds []promises.Predicate
	pool  string // evConsume
	qty   int64  // evConsume
}

func newLedger() *ledger { return &ledger{seeded: map[string]int64{}} }

func heldEvent(id string, preds []promises.Predicate, t int64) ledgerEvent {
	return ledgerEvent{t: t, kind: evHold, id: id, preds: preds}
}

func (l *ledger) add(ev ledgerEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *ledger) problem(format string, args ...any) {
	l.mu.Lock()
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *ledger) failure(format string, args ...any) {
	l.mu.Lock()
	l.nfail++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
	l.mu.Unlock()
}

// clientView is the ledger replayed to its end state.
type clientView struct {
	held      map[string][]promises.Predicate // promise id -> predicates
	heldQty   map[string]int64                // pool -> units held
	consumed  map[string]int64                // pool -> units consumed
	uncertain map[string]bool                 // pools a failed request touched
	slots     int                             // property slots held
	slotsSure bool                            // no failed request touched a property slot
}

func (l *ledger) view() *clientView {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := &clientView{held: map[string][]promises.Predicate{}, heldQty: map[string]int64{},
		consumed: map[string]int64{}, uncertain: map[string]bool{}, slotsSure: true}
	for _, ev := range l.events {
		switch ev.kind {
		case evHold:
			v.held[ev.id] = ev.preds
		case evUnhold:
			delete(v.held, ev.id)
		case evConsume:
			v.consumed[ev.pool] += ev.qty
		case evUncertain:
			delete(v.held, ev.id)
			for _, p := range ev.preds {
				if p.View == promises.AnonymousView {
					v.uncertain[p.Pool] = true
				} else {
					v.slotsSure = false
				}
			}
		}
	}
	for _, preds := range v.held {
		for _, p := range preds {
			if p.View == promises.AnonymousView {
				v.heldQty[p.Pool] += p.Qty
			} else {
				v.slots++
			}
		}
	}
	return v
}

// overcommits replays the history per pool and reports any instant at which
// the promises the client definitely held — acknowledged and not yet handed
// back — exceed the most stock the pool can have had: its seed less every
// acknowledged consumption.
func (l *ledger) overcommits() []string {
	l.mu.Lock()
	type pt struct {
		t     int64
		order int // at equal times: hand-backs, then consumption, then grants
		held  int64
		used  int64
	}
	per := map[string][]pt{}
	for _, ev := range l.events {
		switch ev.kind {
		case evHold, evUnhold:
			sign, order := int64(1), 2
			if ev.kind == evUnhold {
				sign, order = -1, 0
			}
			for _, p := range ev.preds {
				if p.View == promises.AnonymousView {
					per[p.Pool] = append(per[p.Pool], pt{t: ev.t, order: order, held: sign * p.Qty})
				}
			}
		case evConsume:
			per[ev.pool] = append(per[ev.pool], pt{t: ev.t, order: 1, used: ev.qty})
		}
	}
	l.mu.Unlock()
	var out []string
	for pool, pts := range per {
		sort.SliceStable(pts, func(i, j int) bool {
			if pts[i].t != pts[j].t {
				return pts[i].t < pts[j].t
			}
			return pts[i].order < pts[j].order
		})
		var held, used int64
		for _, p := range pts {
			held += p.held
			used += p.used
			if p.held > 0 && held > l.seeded[pool]-used {
				out = append(out, fmt.Sprintf("pool %s: %d units promised at once, at most %d in stock", pool, held, l.seeded[pool]-used))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// verify runs the output checks on a quiescent stack: every engine audits
// healthy, the client's ledger agrees with the engines pool by pool
// (seeded stock = on hand + acknowledged consumption, and the units the
// engines hold = the units the client was promised and kept), no pool was
// ever promised beyond its stock, and no instance backs two promises.
func (st *stack) verify() []string {
	l := st.ledger
	l.mu.Lock()
	problems := append([]string(nil), l.problems...)
	l.mu.Unlock()
	problems = append(problems, l.overcommits()...)

	v := l.view()
	onHand := map[string]int64{}
	engineQty := map[string]int64{}
	engineSlots := 0
	backing := map[string]string{}
	for _, n := range st.nodes {
		rep, err := n.eng.Audit()
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: audit: %v", n.id, err))
		} else if !rep.Healthy() {
			problems = append(problems, fmt.Sprintf("%s: %s", n.id, rep))
		}
		pools, err := n.eng.Pools()
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: pools: %v", n.id, err))
		}
		for _, p := range pools {
			onHand[p.ID] = p.OnHand
		}
		active, err := n.eng.ActivePromises()
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: active promises: %v", n.id, err))
		}
		for _, p := range active {
			for i, pred := range p.Predicates {
				if pred.View == promises.AnonymousView {
					engineQty[pred.Pool] += pred.Qty
					continue
				}
				engineSlots++
				if i < len(p.Assigned) && p.Assigned[i] != "" {
					inst := p.Assigned[i]
					if other, dup := backing[inst]; dup {
						problems = append(problems, fmt.Sprintf("instance %s backs both %s and %s", inst, other, p.ID))
					}
					backing[inst] = p.ID
				}
			}
		}
	}
	for pool, seeded := range l.seeded {
		if v.uncertain[pool] {
			continue
		}
		if got, want := onHand[pool], seeded-v.consumed[pool]; got != want {
			problems = append(problems, fmt.Sprintf("pool %s: %d on hand, want seeded %d - consumed %d = %d", pool, got, seeded, v.consumed[pool], want))
		}
		if engineQty[pool] != v.heldQty[pool] {
			problems = append(problems, fmt.Sprintf("pool %s: engine holds %d units, client was promised %d", pool, engineQty[pool], v.heldQty[pool]))
		}
		if engineQty[pool] > onHand[pool] {
			problems = append(problems, fmt.Sprintf("pool %s: %d units promised, %d on hand", pool, engineQty[pool], onHand[pool]))
		}
	}
	if v.slotsSure && engineSlots != v.slots {
		problems = append(problems, fmt.Sprintf("engine holds %d property slots, client was promised %d", engineSlots, v.slots))
	}
	return problems
}

// recoverCheck reopens a crash-consistent copy of each durable node's data
// directory and checks that every acknowledged consumption shows in the
// recovered pool levels and every promise the client still holds passes
// CheckBatch. It returns the time from reopening to the end of the check.
func (st *stack) recoverCheck() (time.Duration, []string) {
	var problems []string
	v := st.ledger.view()
	var held []string
	for id := range v.held {
		held = append(held, id)
	}
	sort.Strings(held)
	var total time.Duration
	for _, n := range st.nodes {
		if n.dir == "" {
			continue
		}
		dir := n.dir + "-recover"
		if err := copyDir(n.dir, dir); err != nil {
			return 0, append(problems, fmt.Sprintf("copy data dir: %v", err))
		}
		t0 := time.Now()
		eng, err := promises.Open(promises.WithShards(st.w.shards), promises.WithDataDir(dir), promises.WithSyncPolicy(promises.SyncAlways))
		if err != nil {
			_ = os.RemoveAll(dir)
			return 0, append(problems, fmt.Sprintf("reopen: %v", err))
		}
		le := eng.(localEngine)
		pools, err := le.Pools()
		if err != nil {
			problems = append(problems, fmt.Sprintf("recovered pools: %v", err))
		}
		level := map[string]int64{}
		for _, p := range pools {
			level[p.ID] = p.OnHand
		}
		for pool, seeded := range st.ledger.seeded {
			if !v.uncertain[pool] && level[pool] != seeded-v.consumed[pool] {
				problems = append(problems, fmt.Sprintf("recovered pool %s: %d on hand, want %d", pool, level[pool], seeded-v.consumed[pool]))
			}
		}
		errs, err := eng.CheckBatch(context.Background(), benchClient, held)
		if err != nil {
			problems = append(problems, fmt.Sprintf("recovered check: %v", err))
		}
		for i, e := range errs {
			if e != nil {
				problems = append(problems, fmt.Sprintf("recovered promise %s unusable: %v", held[i], e))
			}
		}
		if rep, err := eng.Audit(); err != nil || !rep.Healthy() {
			problems = append(problems, fmt.Sprintf("recovered audit: %v %v", rep, err))
		}
		total += time.Since(t0)
		if err := eng.Close(); err != nil {
			problems = append(problems, fmt.Sprintf("close recovered engine: %v", err))
		}
		if err := os.RemoveAll(dir); err != nil {
			problems = append(problems, fmt.Sprintf("remove %s: %v", dir, err))
		}
	}
	return total, problems
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// summary renders the first few problems on one line.
func summary(problems []string) string {
	if len(problems) > 5 {
		return strings.Join(problems[:5], "; ") + fmt.Sprintf("; … %d more", len(problems)-5)
	}
	return strings.Join(problems, "; ")
}
