package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/predicate"
)

// This file is the node-side half of cluster federation: a wire-facing
// wrapper around the reserve/confirm pipeline of pipeline.go that lets a
// *remote* coordinator (cluster.Engine, or the drain path of
// cluster.Coordinator) drive this node's shards as one participant of a
// cross-node two-phase grant. FedReserve opens a session — shard locks held, per-shard
// reservations open, fixed predicates tentatively granted — and exports the
// node's property-match state (slots + candidates) so the caller can solve
// the joint bipartite problem across nodes. FedConfirm applies the caller's
// plan (reallocations, slot migrations in and out of the node, pinned
// property grants) through the open reservations and commits; FedAbort
// rolls everything back. A TTL alarm aborts sessions whose caller died, so
// a crashed coordinator can never wedge a node's shard locks forever.

// FedReserveSpec is the reserve half of a federated grant as it applies to
// one node: the release targets and predicates this node owns, plus every
// property predicate of the original request (never granted at reserve —
// they scope the shard pre-filter and the exported context).
type FedReserveSpec struct {
	// Releases are the release targets owned by this node (§4 upgrade
	// semantics: applied tentatively inside the reservation).
	Releases []string
	// Predicates are this node's slice of the request: anonymous and named
	// predicates on resources this node owns, plus all property
	// predicates. PredIdx carries each predicate's position in the
	// original request.
	Predicates []Predicate
	PredIdx    []int
	// WantProps asks for the node's property-match context (slots and
	// candidates) in the result, for a caller about to run a joint match.
	WantProps bool
	// Duration and MinDuration are the original request's, re-clamped
	// locally (shard configs agree across a well-formed cluster).
	Duration    time.Duration
	MinDuration time.Duration
	// TTL bounds how long the session may stay open before the node
	// aborts it unilaterally. Zero means DefaultFedTTL; the node caps it
	// at MaxFedTTL.
	TTL time.Duration
	// Priority and Preemptible carry the original request's tier and spot
	// flag, as in PromiseRequest: sub-promises are stamped with them, and
	// a positive tier lets each node's planner displace its own
	// lower-tier preemptible holds (preempt.go). Victim selection is
	// node-local — a federated grant never preempts across nodes.
	Priority    int
	Preemptible bool
}

// Fed session TTL bounds: how long a node holds its shard locks for an
// absent federation caller before aborting the session.
const (
	DefaultFedTTL = 30 * time.Second
	MaxFedTTL     = 2 * time.Minute
)

// FedSlot is one active property slot exported in a session's context —
// the left-vertex material of the joint match, with enough identity
// (client, expiry) for a migration to reconstruct the promise row on
// another node.
type FedSlot struct {
	// Key is the slot key ("<promise>#<idx>").
	Key string
	// Expr is the slot's property expression in source form.
	Expr string
	// Assigned is the instance currently backing the slot.
	Assigned string
	// Shard is the slot's shard on this node: the joint match pins
	// non-migratable slots to their exact (node, shard) home.
	Shard int
	// Migratable marks a sole-predicate property sub-promise, the only
	// kind the matcher may re-home (within or across nodes).
	Migratable bool
	// CrossNode additionally allows re-homing on another node: true for
	// plain sub-promises, false for members of a node-local composite
	// (the node's directory could not track a part leaving the node).
	CrossNode bool
	// Client and Expires identify the promise for cross-node
	// reconstruction.
	Client  string
	Expires time.Time
}

// FedCandidate is one instance available to the joint match.
type FedCandidate struct {
	// Instance is the instance id (globally unique across the cluster).
	Instance string
	// Shard is the instance's shard on this node.
	Shard int
	// Props are the instance's properties.
	Props map[string]predicate.Value
	// Tentative marks an instance currently backing a slot (usable only
	// through rearrangement).
	Tentative bool
}

// FedContext is a node's property-match state at reserve time, read
// transactionally under the session's shard locks.
type FedContext struct {
	Slots      []FedSlot
	Candidates []FedCandidate
}

// FedReserveResult reports a FedReserve outcome. Exactly one of Reject and
// SessionID is meaningful: a reject aborted the whole node-side pipeline
// (nothing is held); otherwise the session stays open until FedConfirm,
// FedAbort or the TTL.
type FedReserveResult struct {
	// SessionID names the open session for Confirm/Abort.
	SessionID string
	// Granted are the parts tentatively granted at reserve (fixed
	// predicates), with original request positions. They commit only on
	// Confirm.
	Granted []GrantedPart
	// Deferred lists original positions of named predicates this node
	// deferred into the joint match (their instance is tentatively held by
	// a property slot, so granting them displaces it — matching mode
	// only). The caller must place them via FedConfirmSpec.Pinned.
	Deferred []int
	// Context is the node's property-match state, when requested or when
	// predicates were deferred.
	Context *FedContext
	// Reject, when non-nil, is the node's rejection; the session is gone.
	Reject *PromiseResponse
}

// FedRealloc re-backs one slot of this node with another instance of this
// node (same shard or not — the node converts a cross-shard entry into an
// internal migration itself).
type FedRealloc struct {
	Slot     string
	Instance string
}

// FedMigrateIn re-homes a slot from another node onto an instance of this
// node, preserving the promise's id, client and expiry.
type FedMigrateIn struct {
	ID       string
	Client   string
	Expr     string
	Expires  time.Time
	Instance string
	// FromNode names the source node, for the migration event.
	FromNode string
}

// FedPinned grants one floating predicate of the original request onto an
// instance of this node.
type FedPinned struct {
	Predicate Predicate
	PredIdx   int
	Instance  string
}

// FedConfirmSpec is the caller's plan for this node: apply and commit.
type FedConfirmSpec struct {
	Realloc    []FedRealloc
	MigrateOut []string
	MigrateIn  []FedMigrateIn
	Pinned     []FedPinned
}

// fedSession is one open federated reservation: the shard locks are held
// (unlock releases them), the grant's per-shard reservations are open, and
// the TTL alarm aborts the session if the caller never returns.
type fedSession struct {
	g       *crossGrant
	unlock  func()
	stopTTL func()
}

// FedReserve opens a federated session: it locks every shard, applies the
// node's releases and fixed predicates through open reservations
// (pre-filtered to the shards that matter, exactly as a local cross-shard
// grant would), and exports the property-match context when asked. The
// caller owns the session until FedConfirm/FedAbort; the TTL is the
// backstop. Reserving nodes in ascending node-id order is the caller's
// side of deadlock avoidance — the node-level analogue of lockShards.
func (s *ShardedManager) FedReserve(ctx context.Context, client string, spec FedReserveSpec) (*FedReserveResult, error) {
	if client == "" {
		return nil, fmt.Errorf("%w: missing client", ErrBadRequest)
	}
	// A degraded node refuses to open new federated sessions; FedAbort
	// stays available so peers can clean up sessions already reserved.
	if err := s.health.reject(); err != nil {
		return nil, err
	}
	if len(spec.Predicates) != len(spec.PredIdx) {
		return nil, fmt.Errorf("%w: fed reserve: %d predicates, %d positions", ErrBadRequest, len(spec.Predicates), len(spec.PredIdx))
	}

	// A federated session holds every shard lock: cross-node grants are
	// rare next to their own network round trips, and the full set makes
	// the pre-filter clamp vacuous (no widen signal can reach the wire).
	// Property predicates are never granted at reserve — they float in the
	// caller's joint match.
	all := s.allShards()
	unlock := s.lockShards(all)
	done := false
	defer func() {
		if !done {
			unlock()
		}
	}()
	g, reason, err := s.newCrossGrant(ctx, client, spec.Predicates, spec.PredIdx, spec.Releases, ReserveRequest{
		Duration:    spec.Duration,
		MinDuration: spec.MinDuration,
		Priority:    spec.Priority,
		Preemptible: spec.Preemptible,
	})
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return &FedReserveResult{Reject: &PromiseResponse{Reason: reason}}, nil
	}
	involved, err := s.involvedShards(g, spec.WantProps, all)
	if err != nil {
		return nil, err
	}
	rej, err := s.reserveShards(ctx, g, involved)
	if err != nil {
		return nil, err
	}
	if rej != nil {
		return &FedReserveResult{Reject: rej}, nil
	}

	res := &FedReserveResult{}
	for _, sh := range sortedKeys(g.resvs) {
		res.Granted = append(res.Granted, g.resvs[sh].Granted()...)
	}
	for _, f := range g.floating {
		if f.named {
			res.Deferred = append(res.Deferred, g.orig(f.idx))
		}
	}
	if spec.WantProps || len(res.Deferred) > 0 {
		if res.Context, err = s.fedContext(g.resvs); err != nil {
			abortAll(g.resvs)
			return nil, err
		}
	}

	sess := &fedSession{g: g, unlock: unlock}
	ttl := spec.TTL
	if ttl <= 0 {
		ttl = DefaultFedTTL
	}
	if ttl > MaxFedTTL {
		ttl = MaxFedTTL
	}
	s.fedMu.Lock()
	res.SessionID = s.fedIDs.Next()
	s.fedSessions[res.SessionID] = sess
	s.fedMu.Unlock()
	if al, ok := s.clk.(clock.Alarmer); ok {
		sid := res.SessionID
		sess.stopTTL = al.AfterFunc(s.clk.Now().Add(ttl), func() { s.FedAbort(sid) })
	}
	done = true // the session now owns unlock
	return res, nil
}

// fedContext reads the reserved shards' property-match state. Cross-node
// migratability additionally requires the slot not be a composite member:
// the node's directory cannot follow a part off the node.
func (s *ShardedManager) fedContext(resvs map[int]*Reservation) (*FedContext, error) {
	out := &FedContext{}
	for _, sh := range sortedKeys(resvs) {
		pc, err := resvs[sh].PropertyContext()
		if err != nil {
			return nil, err
		}
		for _, slot := range pc.Slots {
			pid, _, ok := parseSlotKey(slot.Key)
			if !ok {
				return nil, fmt.Errorf("core: malformed slot key %q", slot.Key)
			}
			p, err := s.shards[sh].m.promise(resvs[sh].tx, pid)
			if err != nil {
				return nil, fmt.Errorf("core: slot %s: %w", slot.Key, err)
			}
			out.Slots = append(out.Slots, FedSlot{
				Key:        slot.Key,
				Expr:       slot.Expr.String(),
				Assigned:   slot.Assigned,
				Shard:      sh,
				Migratable: slot.Migratable,
				CrossNode:  slot.Migratable && !s.isPart(pid),
				Client:     p.Client,
				Expires:    p.Expires,
			})
		}
		for _, c := range pc.Candidates {
			out.Candidates = append(out.Candidates, FedCandidate{
				Instance:  c.Instance.ID,
				Shard:     sh,
				Props:     c.Instance.Props,
				Tentative: c.Tentative,
			})
		}
	}
	return out, nil
}

// claimFedSession removes and returns the session, stopping its TTL alarm.
func (s *ShardedManager) claimFedSession(id string) *fedSession {
	s.fedMu.Lock()
	sess := s.fedSessions[id]
	delete(s.fedSessions, id)
	s.fedMu.Unlock()
	if sess != nil && sess.stopTTL != nil {
		sess.stopTTL()
	}
	return sess
}

// FedConfirm applies the caller's plan through the session's open
// reservations and commits, exactly as a local pipeline's Phase 2/3 does
// (applyPlan, confirmPlan). The plan arrives at node granularity, so the
// wire-facing work is here: reallocations that cross shards become
// internal migrations, and slots arriving from other nodes are rebuilt
// from their wire fields. It returns every part this session granted
// (reserve-time fixed parts plus the pinned grants), in shard order.
func (s *ShardedManager) FedConfirm(ctx context.Context, sessionID string, spec FedConfirmSpec) ([]GrantedPart, error) {
	sess := s.claimFedSession(sessionID)
	if sess == nil {
		return nil, fmt.Errorf("%w: fed session %s (expired or finished)", ErrPromiseNotFound, sessionID)
	}
	defer sess.unlock()
	g := sess.g
	// A node that degraded after reserving refuses the commit and hands
	// the reservations back; the coordinator node sees a plain failed
	// confirm and compensates as usual.
	if err := s.health.reject(); err != nil {
		abortAll(g.resvs)
		return nil, err
	}
	plan, err := s.fedPlan(spec)
	if err != nil {
		abortAll(g.resvs)
		return nil, err
	}
	if err := applyPlan(g.resvs, plan, g.durCapped); err != nil {
		return nil, err
	}
	confirmed, err := s.confirmPlan(ctx, g.client, g.resvs, plan.moves)
	if err != nil {
		return nil, err
	}
	if err := s.durSync(); err != nil {
		return nil, fmt.Errorf("core: commit not durable: %w", err)
	}
	parts := make([]GrantedPart, len(confirmed))
	for i, c := range confirmed {
		parts[i] = GrantedPart{ID: c.id, PredIdx: c.predIdx, Expires: c.expires}
	}
	return parts, nil
}

// fedPlan turns a node-level confirm spec into this node's plan. Moves are
// ordered so detachments run slots leaving the node before slots moving
// between its shards, and attachments run those movers before slots
// arriving from other nodes.
func (s *ShardedManager) fedPlan(spec FedConfirmSpec) (*matchPlan, error) {
	plan := &matchPlan{realloc: make(map[int]map[string]string)}
	for _, id := range spec.MigrateOut {
		from, ok := s.ownerShard(id)
		if !ok {
			return nil, fmt.Errorf("%w: migrate-out of unknown promise %s", ErrBadRequest, id)
		}
		plan.moves = append(plan.moves, slotMigration{promiseID: id, from: from, to: -1})
	}
	// Same-shard reallocations apply in place; cross-shard ones become
	// internal migrations (the caller plans at node granularity; shards
	// are this node's business).
	for _, ra := range spec.Realloc {
		pid, _, ok := parseSlotKey(ra.Slot)
		if !ok {
			return nil, fmt.Errorf("%w: malformed slot key %q", ErrBadRequest, ra.Slot)
		}
		from, ok := s.ownerShard(pid)
		if !ok {
			return nil, fmt.Errorf("%w: realloc of unknown promise %s", ErrBadRequest, pid)
		}
		if to := s.ShardOf(ra.Instance); to != from {
			plan.moves = append(plan.moves, slotMigration{promiseID: pid, from: from, to: to, inst: ra.Instance})
			continue
		}
		if plan.realloc[from] == nil {
			plan.realloc[from] = make(map[string]string)
		}
		plan.realloc[from][ra.Slot] = ra.Instance
	}
	for _, mi := range spec.MigrateIn {
		expr, err := predicate.Parse(mi.Expr)
		if err != nil {
			return nil, fmt.Errorf("%w: migrate-in %s: bad expression %q: %v", ErrBadRequest, mi.ID, mi.Expr, err)
		}
		from := mi.FromNode
		if from == "" {
			from = "another node"
		}
		plan.moves = append(plan.moves, slotMigration{
			promiseID: mi.ID, from: -1, to: s.ShardOf(mi.Instance), inst: mi.Instance, fromNode: from,
			row: &Promise{
				ID:           mi.ID,
				Client:       mi.Client,
				Predicates:   []Predicate{{View: PropertyView, Expr: expr, Source: mi.Expr}},
				Assigned:     []string{""},
				DelegatedQty: make([]int64, 1),
				DelegatedID:  make([]string, 1),
				Expires:      mi.Expires,
				State:        Active,
			},
		})
	}
	for _, pin := range spec.Pinned {
		plan.pins = append(plan.pins, pinnedGrant{shard: s.ShardOf(pin.Instance), pred: pin.Predicate, idx: pin.PredIdx, inst: pin.Instance})
	}
	return plan, nil
}

// FedAbort rolls back an open session, releasing its shard locks.
// Idempotent: aborting a finished or unknown session is a no-op, so a
// caller retrying over a flaky link never double-faults.
func (s *ShardedManager) FedAbort(sessionID string) {
	sess := s.claimFedSession(sessionID)
	if sess == nil {
		return
	}
	abortAll(sess.g.resvs)
	sess.unlock()
}

// FedAbortAll aborts every open session — what a crash does to in-memory
// reservation state (the simulator calls it on injected crashes; a real
// process loses the sessions with the process).
func (s *ShardedManager) FedAbortAll() {
	s.fedMu.Lock()
	ids := make([]string, 0, len(s.fedSessions))
	for id := range s.fedSessions {
		ids = append(ids, id)
	}
	s.fedMu.Unlock()
	for _, id := range ids {
		s.FedAbort(id)
	}
}

// FedSummary snapshots the node's candidate summaries, lock-free.
func (s *ShardedManager) FedSummary() NodeSummary {
	out := NodeSummary{ByProp: make(map[string]map[predicate.Value]int)}
	for _, sh := range s.shards {
		sum := sh.m.cand.summary.Load()
		out.Hostable += sum.Hostable
		out.Slots += sum.Slots
		if sum.Pinned > 0 {
			if out.Pinned == 0 || sum.MinPinnedExpiry.Before(out.MinPinnedExpiry) {
				out.MinPinnedExpiry = sum.MinPinnedExpiry
			}
			out.Pinned += sum.Pinned
		}
		for prop, byVal := range sum.ByProp {
			m := out.ByProp[prop]
			if m == nil {
				m = make(map[predicate.Value]int)
				out.ByProp[prop] = m
			}
			for v, n := range byVal {
				m[v] += n
			}
		}
	}
	return out
}
