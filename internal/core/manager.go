package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/escrow"
	"repro/internal/ids"
	"repro/internal/predicate"
	"repro/internal/resource"
	"repro/internal/softlock"
	"repro/internal/txn"
)

// PropertyMode selects the implementation technique for property-view
// promises (§5).
type PropertyMode int

// Property-view implementation techniques.
const (
	// MatchingMode is the satisfiability check of §5 with tentative
	// allocation: grants and post-action checks run bipartite matching and
	// may rearrange tentative allocations to admit more promises.
	MatchingMode PropertyMode = iota
	// FirstFitMode is the naive ablation: each property promise is bound
	// to the first satisfying available instance and never moved. The E7
	// experiment measures how many grants this loses.
	FirstFitMode
)

// Config configures a Manager.
type Config struct {
	// Store is the transactional store shared with the resource manager.
	// Nil creates a fresh store (and Resources must then be nil too).
	Store *txn.Store
	// Resources is the resource manager. Nil creates one on Store.
	Resources *resource.Manager
	// Clock drives promise expiry. Nil uses the system clock.
	Clock clock.Clock
	// DefaultDuration applies when a request does not name a duration.
	// Zero means 30 seconds.
	DefaultDuration time.Duration
	// MaxDuration caps granted durations (§6: the manager "might … offer
	// a guarantee that expires sooner than the client wished"). Zero means
	// 10 minutes.
	MaxDuration time.Duration
	// PropertyMode selects the property-view technique.
	PropertyMode PropertyMode
	// DisablePostCheck skips the post-action promise check — the E9
	// ablation demonstrating why §8 requires it. Never set in production.
	DisablePostCheck bool
	// Suppliers maps pool ids to upstream promise makers for delegation
	// (§5). Optional.
	Suppliers map[string]Supplier
	// Actions resolves Request.ActionName to a runnable action, so
	// applications written against the unified Engine surface can invoke
	// named service operations on a local manager exactly as they would
	// over the wire. Optional; service.Registry implements it.
	Actions ActionResolver
	// MaxRetries bounds internal deadlock retries per request. Zero means
	// 32.
	MaxRetries int
	// IDPrefix overrides the promise-id prefix. Empty means "prm". The
	// sharded manager gives each shard a distinct prefix so promise ids
	// stay unique across shards and route back to their owning shard.
	IDPrefix string
	// ExpiryWarning, when positive, emits an EventExpiryImminent this long
	// before each promise's deadline, so clients renew reactively instead
	// of polling CheckBatch. Zero disables the warning.
	ExpiryWarning time.Duration
	// DefaultPriority is the tier stamped onto requests that do not name
	// one (PromiseRequest.Priority == 0). Zero keeps tier 0, which never
	// preempts; a deployment that wants ordinary traffic to displace spot
	// holds sets a positive default. See preempt.go.
	DefaultPriority int
	// ReplayRing sets the event bus's replay-ring capacity (how far back a
	// Watch subscriber can resume with AfterSeq). Zero means
	// DefaultReplayRing. Ignored when an external bus is injected (the
	// sharded manager sizes the shared bus itself).
	ReplayRing int

	// bus shares one event bus across shards; nil creates a private one.
	// gate wraps deadline-driven expiry so the sharded manager can take the
	// shard lock around it; nil runs it directly. Both are set only by
	// NewSharded.
	bus  *EventBus
	gate func(run func())
	// disableFastPath forces property planning and PropertyContext down the
	// scan-everything slow path. Tests only: the equivalence suites run
	// both ways to pin fast ≡ slow.
	disableFastPath bool
	// preemptFilter, when non-nil, vetoes preemption candidates by promise
	// id. NewSharded installs one that keeps composite members out of
	// per-shard victim sets (a composite must be displaced whole or not at
	// all, and only its coordinator can see the whole).
	preemptFilter func(id string) bool
}

// Manager is the promise manager. It is safe for concurrent use; every
// Execute call runs as one ACID transaction against the shared store (§8).
type Manager struct {
	store      *txn.Store
	rm         *resource.Manager
	ledger     *escrow.Ledger
	tags       *softlock.Tags
	clk        clock.Clock
	promiseIDs *ids.Generator
	cfg        Config
	metrics    managerMetrics
	bus        *EventBus
	exp        expiryIndex
	cand       candidateIndex
	pmatch     propMatcher
	gate       func(run func())
	// pubMu is held across a transaction's commit and the publication of
	// its events, so bus order equals commit order and a promise's
	// lifecycle events can never invert even on a bare (unsharded,
	// unlocked) Manager.
	pubMu sync.Mutex
	// persist mirrors this store's commits into its write-ahead log and
	// busPersist the shared event log; both nil on a non-durable engine.
	// durable is the owning durability runtime (set by OpenDurable; on a
	// sharded engine it lives on the ShardedManager instead).
	persist    *persistLog
	busPersist *persistLog
	durable    *durableEngine
	// health is the shared degraded-mode latch (nil on a non-durable
	// engine, which cannot degrade).
	health *engineHealth
}

// New creates a Manager, installing its promise, escrow and soft-lock
// tables into the store. Call New at most once per store.
func New(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		if cfg.Resources != nil {
			return nil, fmt.Errorf("core: Config.Resources set without Config.Store")
		}
		cfg.Store = txn.NewStore()
	}
	if cfg.Resources == nil {
		rm, err := resource.NewManager(cfg.Store)
		if err != nil {
			return nil, err
		}
		cfg.Resources = rm
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	if cfg.DefaultDuration <= 0 {
		cfg.DefaultDuration = 30 * time.Second
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 10 * time.Minute
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 32
	}
	if cfg.IDPrefix == "" {
		cfg.IDPrefix = "prm"
	}
	if err := cfg.Store.CreateTable(TablePromises); err != nil {
		return nil, err
	}
	if err := cfg.Store.CreateTable(TablePromisesDone); err != nil {
		return nil, err
	}
	ledger, err := escrow.NewLedger(cfg.Store, cfg.Resources)
	if err != nil {
		return nil, err
	}
	tags, err := softlock.NewTags(cfg.Store, cfg.Resources)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		store:      cfg.Store,
		rm:         cfg.Resources,
		ledger:     ledger,
		tags:       tags,
		clk:        cfg.Clock,
		promiseIDs: ids.New(cfg.IDPrefix),
		cfg:        cfg,
		bus:        cfg.bus,
		gate:       cfg.gate,
	}
	if m.bus == nil {
		m.bus = NewEventBusCap(cfg.ReplayRing)
	}
	if m.gate == nil {
		m.gate = func(run func()) { run() }
	}
	// Every committed transaction publishes an immutable store snapshot
	// (txn/snapshot.go); stamping it with the bus sequence makes snapshot
	// epochs and Watch streams describe the same history, and the commit
	// hook keeps the property-candidate index (candidates.go) current for
	// the cross-shard reservation pre-filter. Both installs happen before
	// the manager is visible to any other goroutine.
	m.store.SetEpochSource(m.bus.Seq)
	m.candInit(m.store.Snapshot())
	m.store.SetCommitHook(m.onCommit)
	m.exp.alarmer, _ = cfg.Clock.(clock.Alarmer)
	// A failed deadline pass re-arms itself on a backoff; the counter is
	// how the failure surfaces (Stats.ExpiryErrors) — there is no caller
	// to return the error to.
	m.exp.fire = func() {
		if err := m.expireDue(); err != nil {
			m.metrics.expiryErrors.Inc()
		}
	}
	return m, nil
}

// Watch subscribes to the manager's promise lifecycle events; see
// promises.Engine. The channel closes when ctx is cancelled or — under
// SlowDisconnect — when the subscriber falls behind.
func (m *Manager) Watch(ctx context.Context, opts WatchOptions) (<-chan Event, error) {
	return m.bus.Watch(ctx, opts)
}

// Resources returns the resource manager (for seeding state in examples
// and tests).
func (m *Manager) Resources() *resource.Manager { return m.rm }

// Store returns the backing store.
func (m *Manager) Store() *txn.Store { return m.store }

// execState carries cross-trust-domain compensation hooks for one request
// (upstream promises acquired during planning must be released if the local
// transaction aborts, and upstream releases must run only after it commits)
// plus metric deltas that apply only if the attempt commits — a deadlock
// retry must not double-count.
type execState struct {
	undoUpstream []func()
	postCommit   []func()
	released     int64
	expired      int64
	preempted    int64
	// events records the attempt's lifecycle transitions; they publish on
	// the shared bus only after the transaction commits.
	events []Event
	// sweptDue are the expiry-heap entries the request-path due check
	// processed inside this transaction; they are removed from the heap
	// only after commit.
	sweptDue []expiryEntry
}

// compensate releases the upstream promises acquired during the attempt,
// newest first.
func (st *execState) compensate() {
	for i := len(st.undoUpstream) - 1; i >= 0; i-- {
		st.undoUpstream[i]()
	}
}

// Execute processes one client message: grants/rejects its promise
// requests, runs its action under its promise environment, applies release
// options atomically with action success, and performs the post-action
// promise check — all inside a single ACID transaction, exactly as §8
// prescribes. Deadlocks between concurrent requests are retried internally.
//
// The context bounds the whole call: cancellation is honoured before each
// attempt (a dead client never starts a transaction) and propagates to
// upstream supplier calls made while planning. Work already committed is
// never undone by a late cancellation.
func (m *Manager) Execute(ctx context.Context, req Request) (*Response, error) {
	if req.Client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	// Degraded read-only mode rejects mutations up front; reads
	// (CheckBatch, Watch, Stats) never come through here.
	if err := m.health.reject(); err != nil {
		return nil, err
	}
	if err := m.resolveAction(&req); err != nil {
		return nil, err
	}
	start := m.clk.Now()
	var lastErr error
	for attempt := 0; attempt < m.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := m.executeOnce(ctx, req)
		if err == nil {
			m.observeExecute(start, resp)
			switch {
			case resp.ActionErr == nil:
			case errors.Is(resp.ActionErr, ErrPromiseViolated):
				m.metrics.violations.Inc()
			default:
				m.metrics.actionErrors.Inc()
			}
			return resp, nil
		}
		if !errors.Is(err, txn.ErrDeadlock) {
			return nil, err
		}
		m.metrics.deadlocks.Inc()
		lastErr = err
		// Deadlock victims back off with jitter so retrying requests do
		// not collide in lockstep.
		shift := attempt
		if shift > 8 {
			shift = 8
		}
		time.Sleep(time.Duration(rand.Intn(1<<shift+1)) * 50 * time.Microsecond)
	}
	return nil, fmt.Errorf("core: request kept deadlocking after %d attempts: %w", m.cfg.MaxRetries, lastErr)
}

// resolveAction materialises req.ActionName through the configured resolver
// into req.Action, so the rest of the pipeline sees one action shape.
func (m *Manager) resolveAction(req *Request) error {
	if req.ActionName == "" {
		return nil
	}
	if req.Action != nil {
		return fmt.Errorf("%w: both Action and ActionName set", ErrBadRequest)
	}
	if m.cfg.Actions == nil {
		return fmt.Errorf("%w: no action resolver configured for action %q", ErrBadRequest, req.ActionName)
	}
	named, err := m.cfg.Actions.ResolveAction(req.ActionName)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	params := req.ActionParams
	req.Action = func(ac *ActionContext) (any, error) { return named(params, ac) }
	return nil
}

func (m *Manager) executeOnce(ctx context.Context, req Request) (_ *Response, err error) {
	tx := m.store.Begin(txn.Block)
	st := &execState{}
	committed := false
	defer func() {
		if committed {
			return
		}
		if !tx.Done() {
			_ = tx.Abort()
		}
		// Compensate upstream promises acquired during this attempt.
		st.compensate()
	}()

	if err := m.sweepExpired(tx, st); err != nil {
		return nil, err
	}

	resp := &Response{}
	for _, pr := range req.PromiseRequests {
		presp, err := m.processPromiseRequest(ctx, tx, st, req.Client, pr)
		if err != nil {
			return nil, err
		}
		resp.Promises = append(resp.Promises, presp)
	}

	envErr := m.validateEnv(tx, req.Client, req.Env)
	switch {
	case req.Action != nil:
		if envErr != nil {
			resp.ActionErr = envErr
			break
		}
		sp := tx.Savepoint()
		postMark := len(st.postCommit)
		relMark := st.released
		evMark := len(st.events)
		result, aerr := runAction(req.Action, tx, m.rm)
		if aerr != nil {
			// A deadlock inside the action is a transaction-level event,
			// not an application failure: bubble it up so Execute retries
			// the whole request (actions must therefore be deterministic
			// functions of transaction state, which PM-unaware services
			// are by construction).
			if errors.Is(aerr, txn.ErrDeadlock) {
				return nil, aerr
			}
			// Action failed: undo its changes; promises in the environment
			// remain in force (§4: "if the purchase fails … then the
			// promise should remain in force").
			if rerr := tx.RollbackTo(sp); rerr != nil {
				return nil, rerr
			}
			resp.ActionErr = aerr
			break
		}
		// Release options apply atomically with action success.
		if rerr := m.applyEnvReleases(tx, st, req.Client, req.Env); rerr != nil {
			return nil, rerr
		}
		if !m.cfg.DisablePostCheck {
			if verr := m.checkAll(tx); verr != nil {
				// §8: "the promise manager will roll back the changes made
				// by the Action and return a failure message".
				if rerr := tx.RollbackTo(sp); rerr != nil {
					return nil, rerr
				}
				st.postCommit = st.postCommit[:postMark]
				st.released = relMark
				st.events = st.events[:evMark]
				resp.ActionErr = fmt.Errorf("%w: %v", ErrPromiseViolated, verr)
				ve := Event{Type: EventViolated, Time: m.clk.Now(), Reason: verr.Error()}
				var v *violationError
				if errors.As(verr, &v) {
					ve.PromiseID, ve.Client = v.PromiseID, v.Client
				}
				st.events = append(st.events, ve)
				break
			}
		}
		resp.ActionResult = result
	case len(req.Env) > 0:
		// Pure promise-release message.
		if envErr != nil {
			resp.ActionErr = envErr
			break
		}
		if rerr := m.applyEnvReleases(tx, st, req.Client, req.Env); rerr != nil {
			return nil, rerr
		}
	}

	m.pubMu.Lock()
	if err := tx.Commit(); err != nil {
		m.pubMu.Unlock()
		return nil, err
	}
	committed = true
	m.bus.publish(st.events...)
	m.pubMu.Unlock()
	// Force the commit and its events to stable storage (per the sync
	// policy) before anything is reported to the caller. The commit stands
	// either way; the error tells the caller its outcome may not survive a
	// crash. Bookkeeping below still runs so the live engine stays
	// consistent.
	syncErr := m.durSync()
	m.metrics.releases.Add(st.released)
	m.metrics.expirations.Add(st.expired)
	m.metrics.preemptions.Add(st.preempted)
	for _, f := range st.postCommit {
		f()
	}
	// Tracked only after the grant events are published, so a deadline
	// alarm can never emit a promise's Expired ahead of its Granted.
	for _, pr := range resp.Promises {
		if pr.Accepted {
			m.trackExpiry(pr.PromiseID, pr.Expires)
		}
	}
	// Request-path expiry processed these entries inside the committed
	// transaction; drop them so they are not re-inspected forever when no
	// alarm-capable clock prunes the heap.
	if len(st.sweptDue) > 0 {
		m.exp.removeDue(m.clk.Now(), st.sweptDue)
	}
	if syncErr != nil {
		return nil, fmt.Errorf("core: commit not durable: %w", syncErr)
	}
	return resp, nil
}

// runAction executes the application action, converting panics into errors
// so an ill-behaved service cannot take down the manager.
func runAction(a Action, tx *txn.Tx, rm *resource.Manager) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: action panicked: %v", r)
		}
	}()
	return a(&ActionContext{Tx: tx, Resources: rm})
}

// processPromiseRequest evaluates one atomic <promise-request>. It returns
// the response to send; err is reserved for internal failures that must
// abort the whole message.
func (m *Manager) processPromiseRequest(ctx context.Context, tx *txn.Tx, st *execState, client string, pr PromiseRequest) (PromiseResponse, error) {
	reject := func(format string, args ...any) PromiseResponse {
		return PromiseResponse{Correlation: pr.RequestID, Reason: fmt.Sprintf(format, args...)}
	}
	if len(pr.Predicates) == 0 {
		return reject("no predicates in promise request"), nil
	}
	for _, p := range pr.Predicates {
		if err := p.Validate(); err != nil {
			return reject("invalid predicate %s: %v", p, err), nil
		}
	}
	// Resolve promises to be handed back atomically with this grant (§4,
	// third requirement). They stay in force if the grant fails.
	var releases []*Promise
	for _, rid := range pr.Releases {
		p, err := m.promiseForClient(tx, client, rid)
		if err != nil {
			return reject("release target %s: %v", rid, err), nil
		}
		releases = append(releases, p)
	}

	duration, durReason := m.grantDuration(ctx, pr.Duration, pr.MinDuration)
	if durReason != "" {
		return reject("%s", durReason), nil
	}
	if pr.Priority == 0 {
		pr.Priority = m.cfg.DefaultPriority
	}
	plan, reason, counter, err := m.plan(ctx, tx, st, pr.Predicates, releases, duration)
	if err != nil {
		return PromiseResponse{}, err
	}
	var victims []*Promise
	if plan == nil {
		// Spot-capacity fallback: a positive-tier request the planner
		// rejected may displace strictly-lower-tier preemptible holds
		// (preempt.go). The rejection keeps the original reason when
		// preemption cannot help either.
		plan, victims, err = m.planPreempt(ctx, tx, st, pr.Predicates, releases, duration, pr.Priority)
		if err != nil {
			return PromiseResponse{}, err
		}
		if plan == nil {
			resp := reject("%s", reason)
			resp.Counter = counter
			return resp, nil
		}
	}

	for _, rp := range releases {
		if err := m.releasePromise(tx, st, rp, Released); err != nil {
			return PromiseResponse{}, err
		}
	}
	// The grant's id is allocated before the victims are revoked so each
	// EventPreempted can name the promise that displaced its holder.
	id := m.promiseIDs.Next()
	for _, vp := range victims {
		if err := m.preemptPromise(tx, st, vp, id, pr.Priority); err != nil {
			return PromiseResponse{}, err
		}
	}
	prm := &Promise{
		ID:          id,
		Client:      client,
		Predicates:  append([]Predicate(nil), pr.Predicates...),
		Expires:     m.clk.Now().Add(duration),
		State:       Active,
		Priority:    pr.Priority,
		Preemptible: pr.Preemptible,
	}
	if err := m.applyGrant(tx, prm, plan); err != nil {
		return PromiseResponse{}, err
	}
	ev := Event{Type: EventGranted, PromiseID: prm.ID, Client: client, Time: m.clk.Now(), Expires: prm.Expires}
	if len(releases) > 0 {
		// The §4 modify/upgrade shape: the new promise supersedes the ones
		// just handed back.
		ev.Type = EventRenewed
		ids := make([]string, len(releases))
		for i, rp := range releases {
			ids[i] = rp.ID
		}
		ev.Reason = "replaces " + strings.Join(ids, ",")
	}
	st.events = append(st.events, ev)
	return PromiseResponse{
		Correlation: pr.RequestID,
		Accepted:    true,
		PromiseID:   prm.ID,
		Expires:     prm.Expires,
	}, nil
}

func (m *Manager) clampDuration(d time.Duration) time.Duration {
	if d <= 0 {
		d = m.cfg.DefaultDuration
	}
	if d > m.cfg.MaxDuration {
		d = m.cfg.MaxDuration
	}
	return d
}

// grantDuration resolves the duration a grant would carry: the requested
// duration clamped to the manager's cap, then capped by the request
// context's deadline — the two timeout vocabularies agree, so a promise
// never outlives the call-level deadline the client itself set. A non-empty
// reason rejects the request: the client declared (via min) that anything
// shorter is useless to it, the §6 "manager might … offer a guarantee that
// expires sooner than the client wished" direction with an explicit floor.
func (m *Manager) grantDuration(ctx context.Context, requested, min time.Duration) (time.Duration, string) {
	d := m.clampDuration(requested)
	if deadline, ok := ctx.Deadline(); ok {
		// The deadline is wall-clock; durations are relative, so the cap
		// translates to any engine clock.
		if remaining := time.Until(deadline); remaining < d {
			d = remaining
		}
	}
	if min > 0 && d < min {
		return 0, fmt.Sprintf("cannot hold the promise for the required minimum %v: capped at %v by the manager and the request deadline", min, d.Round(time.Millisecond))
	}
	if d <= 0 {
		return 0, fmt.Sprintf("request deadline leaves no time to promise (%v)", d.Round(time.Millisecond))
	}
	return d, ""
}

// promiseForClient loads a usable promise owned by client, mapping state
// problems to the client-visible sentinel errors. It reads through any
// txn.Reader: a transaction on the write paths, a lock-free snapshot on
// the read paths.
func (m *Manager) promiseForClient(r txn.Reader, client, id string) (*Promise, error) {
	p, err := m.promise(r, id)
	if err != nil {
		return nil, err
	}
	if p.Client != client {
		return nil, fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
	}
	switch p.State {
	case Released:
		return nil, fmt.Errorf("%w: %s", ErrPromiseReleased, id)
	case Expired:
		return nil, fmt.Errorf("%w: %s", ErrPromiseExpired, id)
	case Preempted:
		return nil, fmt.Errorf("%w: %s", ErrPromisePreempted, id)
	}
	if !m.clk.Now().Before(p.Expires) {
		return nil, fmt.Errorf("%w: %s", ErrPromiseExpired, id)
	}
	return p, nil
}

func (m *Manager) promise(r txn.Reader, id string) (*Promise, error) {
	row, err := r.Get(TablePromises, id)
	if errors.Is(err, txn.ErrNotFound) {
		row, err = r.Get(TablePromisesDone, id)
	}
	if errors.Is(err, txn.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrPromiseNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	p := row.(*promiseRow).p
	return &p, nil
}

// putPromise stores p in the table matching its state: active promises in
// the scanned promise table, terminal ones in the keyed-only done table.
func (m *Manager) putPromise(tx *txn.Tx, p *Promise) error {
	if p.State == Active {
		return tx.Put(TablePromises, p.ID, &promiseRow{p: *p})
	}
	if err := tx.Delete(TablePromises, p.ID); err != nil && !errors.Is(err, txn.ErrNotFound) {
		return err
	}
	return tx.Put(TablePromisesDone, p.ID, &promiseRow{p: *p})
}

// validateEnv checks that every environment promise exists, belongs to the
// client, and has not expired or been released — the "promise-expired"
// check of §2.
func (m *Manager) validateEnv(r txn.Reader, client string, env []EnvEntry) error {
	for _, e := range env {
		if _, err := m.promiseForClient(r, client, e.PromiseID); err != nil {
			return err
		}
	}
	return nil
}

// applyEnvReleases hands back every environment promise whose release
// option is set.
func (m *Manager) applyEnvReleases(tx *txn.Tx, st *execState, client string, env []EnvEntry) error {
	for _, e := range env {
		if !e.Release {
			continue
		}
		p, err := m.promiseForClient(tx, client, e.PromiseID)
		if err != nil {
			return err
		}
		if err := m.releasePromise(tx, st, p, Released); err != nil {
			return err
		}
	}
	return nil
}

// releasePromise frees every hold backing p and marks it with the given
// terminal state (Released, Expired or Preempted).
func (m *Manager) releasePromise(tx *txn.Tx, st *execState, p *Promise, terminal State) error {
	if p.State != Active {
		return nil
	}
	for i, pred := range p.Predicates {
		slot := slotKey(p.ID, i)
		switch pred.View {
		case AnonymousView:
			if _, err := m.ledger.ReleaseAll(tx, pred.Pool, slot); err != nil {
				return err
			}
			if i < len(p.DelegatedID) && p.DelegatedID[i] != "" {
				sup := m.cfg.Suppliers[pred.Pool]
				if sup != nil {
					id := p.DelegatedID[i]
					// Post-commit compensation must outlive the request's
					// context: the local release is already durable.
					st.postCommit = append(st.postCommit, func() { _ = sup.ReleasePromise(context.Background(), id) })
				}
			}
		case NamedView, PropertyView:
			inst := ""
			if i < len(p.Assigned) {
				inst = p.Assigned[i]
			}
			if inst == "" {
				continue
			}
			holder, err := m.tags.Holder(tx, inst)
			if err != nil {
				return err
			}
			if holder != slot {
				continue // the action already consumed it through Take, or a repair moved it
			}
			in, err := m.rm.Instance(tx, inst)
			if errors.Is(err, txn.ErrNotFound) {
				if ferr := m.tags.Forget(tx, inst, slot); ferr != nil {
					return ferr
				}
				continue
			}
			if err != nil {
				return err
			}
			if in.Status == resource.Promised {
				if err := m.tags.Release(tx, inst, slot); err != nil {
					return err
				}
			} else {
				// The application took (or otherwise moved) the instance
				// under this promise's protection; just drop the record.
				if err := m.tags.Forget(tx, inst, slot); err != nil {
					return err
				}
			}
		}
	}
	p.State = terminal
	typ := EventReleased
	switch terminal {
	case Expired:
		st.expired++
		typ = EventExpired
	case Preempted:
		st.preempted++
		typ = EventPreempted
	default:
		st.released++
	}
	st.events = append(st.events, Event{Type: typ, PromiseID: p.ID, Client: p.Client, Time: m.clk.Now()})
	return m.putPromise(tx, p)
}

// sweepExpired lapses active promises past their expiry, freeing their
// holds, so availability reflects only live promises (§2: "promises will
// expire at the end of this time"). It runs at the start of every request,
// but no longer scans the promise table: the expiry heap (expiry.go) names
// exactly the promises due, so the check is O(1) when nothing is due —
// normally the case, because the deadline alarm already lapsed them — and
// O(expired) otherwise.
func (m *Manager) sweepExpired(tx *txn.Tx, st *execState) error {
	now := m.clk.Now()
	for _, e := range m.exp.dueEntries(now) {
		if e.warn {
			// Warnings belong to the alarm path; without an alarm-capable
			// clock the request path emits (and retires) them instead, so
			// they cannot pile up in the heap.
			if m.exp.alarmer == nil {
				if p, err := m.promise(tx, e.id); err == nil && p.State == Active && now.Before(p.Expires) {
					st.events = append(st.events, Event{
						Type: EventExpiryImminent, PromiseID: p.ID, Client: p.Client,
						Time: now, Expires: p.Expires,
					})
				}
				st.sweptDue = append(st.sweptDue, e)
			}
			continue
		}
		p, err := m.promise(tx, e.id)
		if errors.Is(err, ErrPromiseNotFound) {
			st.sweptDue = append(st.sweptDue, e)
			continue // migrated away, or an id this store never held
		}
		if err != nil {
			return err
		}
		if p.State == Active && !now.Before(p.Expires) {
			if err := m.releasePromise(tx, st, p, Expired); err != nil {
				return err
			}
		}
		st.sweptDue = append(st.sweptDue, e)
	}
	return nil
}

// Sweep expires lapsed promises. With an alarm-capable clock (the system
// clock, the test fake) it is a no-op shim kept for compatibility: the
// expiry heap already lapsed every promise at its deadline. With a clock
// that cannot alarm it performs the deadline processing itself.
func (m *Manager) Sweep() error {
	return m.expireDue()
}

// PromiseInfo returns a copy of the promise with the given id, for
// inspection by tools and tests. It reads the latest committed store
// snapshot and acquires no lock, so it never queues behind grants.
func (m *Manager) PromiseInfo(id string) (Promise, error) {
	p, err := m.promise(m.store.Snapshot(), id)
	if err != nil {
		return Promise{}, err
	}
	return *p, nil
}

// ActivePromises returns copies of all active, unexpired promises, read
// from the latest committed store snapshot with no lock acquisition.
func (m *Manager) ActivePromises() ([]Promise, error) {
	return m.activePromises(m.store.Snapshot())
}

func (m *Manager) activePromises(r txn.Reader) ([]Promise, error) {
	now := m.clk.Now()
	var out []Promise
	err := r.Scan(TablePromises, func(_ string, row txn.Row) bool {
		p := row.(*promiseRow).p
		if p.State == Active && now.Before(p.Expires) {
			out = append(out, p)
		}
		return true
	})
	return out, err
}

// Release hands back the named promises atomically: either every id is
// usable by client and all are released, or none are and the failure is
// returned — the pure-release message of §6 as a method.
func (m *Manager) Release(ctx context.Context, client string, ids ...string) error {
	if len(ids) == 0 {
		return nil
	}
	env := make([]EnvEntry, len(ids))
	for i, id := range ids {
		env[i] = EnvEntry{PromiseID: id, Release: true}
	}
	resp, err := m.Execute(ctx, Request{Client: client, Env: env})
	if err != nil {
		return err
	}
	return resp.ActionErr
}

// CreatePool registers a pool, in a transaction of its own — the seeding
// convenience mirrored on ShardedManager so setup code is engine-agnostic.
func (m *Manager) CreatePool(id string, onHand int64, props map[string]predicate.Value) error {
	tx := m.store.Begin(txn.Block)
	if err := m.rm.CreatePool(tx, id, onHand, props); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return m.durSync()
}

// CreateInstance registers a named instance, in a transaction of its own.
func (m *Manager) CreateInstance(id string, props map[string]predicate.Value) error {
	tx := m.store.Begin(txn.Block)
	if err := m.rm.CreateInstance(tx, id, props); err != nil {
		_ = tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	return m.durSync()
}

// PoolLevel returns the quantity on hand of one pool, for tools and tests,
// read from the latest committed store snapshot with no lock acquisition.
func (m *Manager) PoolLevel(pool string) (int64, error) {
	p, err := m.rm.Pool(m.store.Snapshot(), pool)
	if err != nil {
		return 0, err
	}
	return p.OnHand, nil
}

// LoadSeed reads a resource seed file and creates its pools and instances
// in one transaction.
func (m *Manager) LoadSeed(r io.Reader) (pools, instances int, err error) {
	ps, ins, err := resource.ParseSeed(r)
	if err != nil {
		return 0, 0, err
	}
	tx := m.store.Begin(txn.Block)
	for _, p := range ps {
		if err := m.rm.CreatePool(tx, p.ID, p.OnHand, p.Props); err != nil {
			_ = tx.Abort()
			return 0, 0, err
		}
		pools++
	}
	for _, in := range ins {
		if err := m.rm.CreateInstance(tx, in.ID, in.Props); err != nil {
			_ = tx.Abort()
			return 0, 0, err
		}
		instances++
	}
	if err := tx.Commit(); err != nil {
		return 0, 0, err
	}
	return pools, instances, m.durSync()
}
