package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/promises"
)

// opKind classifies one request of a session.
type opKind uint8

const (
	opGrant  opKind = iota // secure a promise
	opCheck                // CheckBatch over the session's promise (snapshot read)
	opCommit               // release, or action under the promise with release
)

var opNames = [...]string{"grant", "check", "commit"}

func (k opKind) String() string { return opNames[k] }

// holdDuration is asked for on every grant: far longer than any run, so no
// promise lapses while the benchmark still counts it as held.
const holdDuration = 5 * time.Minute

// benchClient is the promise-client identity of every request the
// benchmark sends, so any session may check a standing hold.
const benchClient = "bench"

// workload is one traffic mix. Rates are requests per second over all
// workers; the ladder is the fixed set of rates max_rps is read from.
type workload struct {
	name      string
	nominal   float64   // rate at which latencies are reported
	ladder    []float64 // ascending; the first rung is the nominal rate
	limit     time.Duration
	shards    int
	durable   bool
	federated bool
	// build seeds the resources and returns the session generator; it is
	// deterministic in the seed.
	build func(seed int64, sc scale) *mix
}

// scale holds the sizes a test may shrink; the benchmark always runs
// defaultScale.
type scale struct {
	pools     int   // quantity pools (quantity-churn, durable-orders, federated-span)
	stock     int64 // units seeded per pool
	rooms     int   // property instances (property-hold)
	standing  int   // promises held for the whole run
	slots     int   // interleaved sessions per worker
	setupReps int   // set-ups per run; the median is setup_s
}

var defaultScale = scale{pools: 10000, stock: 1 << 20, rooms: 2000, standing: 64, slots: 4, setupReps: 15}

var workloads = []*workload{
	{
		name: "quantity-churn", nominal: 1500, limit: 10 * time.Millisecond, shards: 8,
		ladder: []float64{1500, 4000, 4600, 5300, 6100, 7000},
		build:  buildQuantityChurn,
	},
	{
		name: "property-hold", nominal: 800, limit: 25 * time.Millisecond, shards: 8,
		ladder: []float64{800, 3200, 3700, 4300, 5000, 5800},
		build:  buildPropertyHold,
	},
	{
		name: "durable-orders", nominal: 1000, limit: 25 * time.Millisecond, shards: 4, durable: true,
		ladder: []float64{1000, 3000, 3450, 4000, 4600, 5300},
		build:  buildDurableOrders,
	},
	{
		name: "federated-span", nominal: 600, limit: 10 * time.Millisecond, shards: 4, federated: true,
		ladder: []float64{600, 2400, 2750, 3150, 3600, 4150},
		build:  buildFederatedSpan,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// poolSeed is one quantity pool to create.
type poolSeed struct {
	id    string
	stock int64
}

// roomSeed is one property instance to create.
type roomSeed struct {
	id    string
	props map[string]promises.Value
}

// sessionSpec is one client session: a grant, some checks, a commit. It is
// pure data, so a schedule can be compared byte for byte.
type sessionSpec struct {
	preds   []promises.Predicate
	checks  int   // CheckBatch calls between grant and commit
	extra   []int // standing holds each check also reads, by index
	consume int64 // >0: commit consumes this much of preds[0].Pool via adjust-pool
}

func (s *sessionSpec) steps() int { return s.checks + 2 }

func (s *sessionSpec) kind(step int) opKind {
	switch {
	case step == 0:
		return opGrant
	case step <= s.checks:
		return opCheck
	}
	return opCommit
}

// mix is a seeded workload instance: the resources to seed, the holds to
// take before measuring, and a generator of sessions.
type mix struct {
	pools    []poolSeed
	rooms    []roomSeed
	standing []sessionSpec // granted at set-up, held until the run ends
	next     func(r *rand.Rand) sessionSpec
}

func buildQuantityChurn(seed int64, sc scale) *mix {
	m := &mix{}
	for i := 0; i < sc.pools; i++ {
		m.pools = append(m.pools, poolSeed{fmt.Sprintf("pool-%05d", i), sc.stock})
	}
	for i := 0; i < sc.standing; i++ {
		m.standing = append(m.standing, sessionSpec{preds: []promises.Predicate{
			promises.Quantity(m.pools[(i*7919)%len(m.pools)].id, 1)}})
	}
	m.next = func(r *rand.Rand) sessionSpec {
		p := m.pools[rand.NewZipf(r, 1.1, 4, uint64(len(m.pools)-1)).Uint64()]
		return sessionSpec{preds: []promises.Predicate{promises.Quantity(p.id, 1)}, checks: 1}
	}
	return m
}

var bedKinds = []string{"single", "twin", "king"}

func buildPropertyHold(seed int64, sc scale) *mix {
	m := &mix{}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < sc.rooms; i++ {
		m.rooms = append(m.rooms, roomSeed{fmt.Sprintf("room-%04d", i), map[string]promises.Value{
			"floor": promises.Int(int64(1 + r.Intn(20))),
			"view":  promises.Bool(r.Intn(3) == 0),
			"beds":  promises.Str(bedKinds[r.Intn(len(bedKinds))]),
		}})
	}
	for i := 0; i < sc.standing; i++ {
		m.standing = append(m.standing, sessionSpec{preds: []promises.Predicate{
			promises.MustProperty(fmt.Sprintf("floor = %d", 1+i%20))}})
	}
	m.next = func(r *rand.Rand) sessionSpec {
		s := sessionSpec{checks: 8}
		floor := 1 + r.Intn(20)
		switch x := r.Intn(10); {
		case x < 5: // selective: a handful of rooms qualify
			s.preds = []promises.Predicate{promises.MustProperty(fmt.Sprintf(
				"floor = %d and beds = %q", floor, bedKinds[r.Intn(len(bedKinds))]))}
		case x < 8: // broad: most rooms qualify
			s.preds = []promises.Predicate{promises.MustProperty(fmt.Sprintf("floor >= %d", 1+r.Intn(10)))}
		default: // two rooms matched jointly
			s.preds = []promises.Predicate{
				promises.MustProperty(fmt.Sprintf("floor = %d and view", floor)),
				promises.MustProperty(fmt.Sprintf("floor = %d", floor)),
			}
		}
		for j := 0; j < 3 && len(m.standing) > 0; j++ {
			s.extra = append(s.extra, r.Intn(len(m.standing)))
		}
		return s
	}
	return m
}

func buildDurableOrders(seed int64, sc scale) *mix {
	m := &mix{}
	n := max(sc.pools/40, 1)
	for i := 0; i < n; i++ {
		m.pools = append(m.pools, poolSeed{fmt.Sprintf("sku-%03d", i), sc.stock})
	}
	for i := 0; i < sc.standing; i++ {
		m.standing = append(m.standing, sessionSpec{preds: []promises.Predicate{
			promises.Quantity(m.pools[i%len(m.pools)].id, 2)}})
	}
	m.next = func(r *rand.Rand) sessionSpec {
		p := m.pools[r.Intn(len(m.pools))]
		k := int64(1 + r.Intn(3))
		return sessionSpec{preds: []promises.Predicate{promises.Quantity(p.id, k)}, checks: 1, consume: k}
	}
	return m
}

// fedNodes are the federated-span cluster members.
var fedNodes = []string{"n0", "n1"}

func buildFederatedSpan(seed int64, sc scale) *mix {
	m := &mix{}
	n := max(sc.pools/10, 2)
	for i := 0; i < n; i++ {
		m.pools = append(m.pools, poolSeed{fmt.Sprintf("fed-%04d", i), sc.stock})
	}
	// Split the pools by owning node so half the grants can span both.
	owned := map[string][]string{}
	ring := fedRing()
	for _, p := range m.pools {
		o := ring.Owner(p.id)
		owned[o] = append(owned[o], p.id)
	}
	a, b := owned[fedNodes[0]], owned[fedNodes[1]]
	for i := 0; i < sc.standing; i++ {
		m.standing = append(m.standing, sessionSpec{preds: []promises.Predicate{
			promises.Quantity(m.pools[i%len(m.pools)].id, 1)}})
	}
	m.next = func(r *rand.Rand) sessionSpec {
		s := sessionSpec{checks: 1}
		if r.Intn(2) == 0 || len(a) == 0 || len(b) == 0 {
			s.preds = []promises.Predicate{promises.Quantity(m.pools[r.Intn(len(m.pools))].id, 1)}
		} else {
			s.preds = []promises.Predicate{
				promises.Quantity(a[r.Intn(len(a))], 1),
				promises.Quantity(b[r.Intn(len(b))], 1),
			}
		}
		return s
	}
	return m
}

// workers is the number of load-generating goroutines, each with its own
// connection: the reference host has two CPUs.
const workers = 2

// scheduledOp is one request of the open-loop schedule.
type scheduledOp struct {
	at   time.Duration // intended send time, from phase start
	sess int32
	step uint8
}

// schedule is the full, seeded request plan of one phase: a constant-rate
// arrival stream dealt round-robin to the workers, each of which
// interleaves a fixed number of sessions. A session stays on one worker so
// its steps run in order.
type schedule struct {
	rate     float64
	ops      [workers][]scheduledOp
	sessions []sessionSpec
}

// newSchedule plans rate requests per second for d.
func newSchedule(m *mix, seed int64, rate float64, d time.Duration, slots int) *schedule {
	r := rand.New(rand.NewSource(seed))
	s := &schedule{rate: rate}
	n := int(rate * d.Seconds())
	type slotState struct {
		sess int32
		step int
	}
	var state [workers][]slotState
	for w := range state {
		state[w] = make([]slotState, slots)
		for i := range state[w] {
			state[w][i].sess = -1
		}
	}
	var count [workers]int
	for j := 0; j < n; j++ {
		w := j % workers
		st := &state[w][count[w]%slots]
		count[w]++
		if st.sess < 0 || st.step >= s.sessions[st.sess].steps() {
			s.sessions = append(s.sessions, m.next(r))
			st.sess, st.step = int32(len(s.sessions)-1), 0
		}
		at := time.Duration(float64(j) * float64(time.Second) / rate)
		s.ops[w] = append(s.ops[w], scheduledOp{at: at, sess: st.sess, step: uint8(st.step)})
		st.step++
	}
	return s
}

// encode renders the schedule as text, one line per request, so two
// schedules can be compared byte for byte.
func (s *schedule) encode() []byte {
	var b bytes.Buffer
	for w, ops := range s.ops {
		for _, op := range ops {
			ss := &s.sessions[op.sess]
			fmt.Fprintf(&b, "%d %d %d %d %s", w, op.at, op.sess, op.step, ss.kind(int(op.step)))
			for _, p := range ss.preds {
				fmt.Fprintf(&b, " [%d %s %d %s]", p.View, p.Pool, p.Qty, p.Source)
			}
			fmt.Fprintf(&b, " %v %d\n", ss.extra, ss.consume)
		}
	}
	return b.Bytes()
}
