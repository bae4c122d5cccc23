package core

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// This file is the coordinator half of the two-phase reserve →
// confirm/abort grant pipeline, written once for both of its callers: an
// in-process cross-shard grant (grantCross in sharded.go) and a node's
// share of a cross-node grant driven over the wire (FedReserve/FedConfirm
// in fed.go). The shard half is reserve.go. A grant runs as:
//
//  1. newCrossGrant routes release targets to shards, caps the duration
//     and sorts the predicates into fixed and floating ones;
//  2. involvedShards picks the shards to reserve (pre-filtered) and
//     reserveShards opens one Reservation on each;
//  3. solveFloat places the floating predicates with the joint solver
//     (globalmatch.go) and applyPlan applies the result through the open
//     reservations;
//  4. confirmPlan commits every reservation and re-routes moved slots.
//
// Every step that fails aborts every open reservation, so releases spring
// back into force and tentative grants vanish.

// floatPred is one new left vertex of the joint match: a property
// predicate free to land anywhere, or a deferred named predicate bound to
// exactly one instance.
type floatPred struct {
	idx   int // position in crossGrant.preds
	named bool
}

// crossGrant is one grant as the pipeline sees it: the predicates this
// engine places, where each release target and fixed predicate lives,
// which predicates float into the joint match, and the open reservations.
type crossGrant struct {
	client string
	// preds are the predicates this engine places; origIdx maps them to
	// their positions in the client's request (nil: preds is the request).
	preds   []Predicate
	origIdx []int
	// shape carries the request's duration, floor, tier and spot flag into
	// every Reserve.
	shape     ReserveRequest
	durCapped time.Duration
	// releases and fixed are keyed by shard; fixed holds positions in preds.
	releases     map[int][]string
	compositeRel bool
	fixed        map[int][]int
	floating     []floatPred
	resvs        map[int]*Reservation
}

// orig returns the request position of preds[i].
func (g *crossGrant) orig(i int) int {
	if g.origIdx == nil {
		return i
	}
	return g.origIdx[i]
}

// newCrossGrant prepares a grant: it validates the predicates, routes the
// release targets to their shards (composite targets expand into their
// parts), resolves the duration cap — a request whose floor cannot be met
// rejects before any shard reserves, counted on shard 0 — and partitions
// the predicates. Anonymous and named predicates bind to their resource's
// shard; property predicates float. In matching mode a named predicate
// whose instance is tentatively allocated to a property promise floats
// too: granting it displaces that allocation, and the displaced slot may
// need to land on any shard (first-fit never displaces, so it never
// defers — the owning shard's planner rejects exactly as the single store
// would). The caller holds the lock of every shard the predicates name, so
// the deferral answer holds through commit. A non-empty reason is a
// client-visible rejection.
func (s *ShardedManager) newCrossGrant(ctx context.Context, client string, preds []Predicate, origIdx []int, releases []string, shape ReserveRequest) (g *crossGrant, reason string, err error) {
	for _, p := range preds {
		if err := p.Validate(); err != nil {
			return nil, fmt.Sprintf("invalid predicate %s: %v", p, err), nil
		}
	}
	// Normalize the tier here so the coordinator and every shard agree on
	// it; shard configs share one DefaultPriority.
	if shape.Priority == 0 {
		shape.Priority = s.shards[0].m.cfg.DefaultPriority
	}
	g = &crossGrant{
		client: client, preds: preds, origIdx: origIdx, shape: shape,
		releases: make(map[int][]string), fixed: make(map[int][]int),
		resvs: make(map[int]*Reservation),
	}
	for _, rid := range releases {
		g.compositeRel = g.compositeRel || isCompositeID(rid)
		if !s.eachPart(client, rid, func(sh int, part string) { g.releases[sh] = append(g.releases[sh], part) }) {
			return nil, fmt.Sprintf("release target %s: %v", rid, fmt.Errorf("%w: %s", ErrPromiseNotFound, rid)), nil
		}
	}
	// Shard configs agree, so any shard's answer is the answer. The capped
	// value also prices the pinned grants, so a floating predicate cannot
	// outlive the caller's deadline either.
	g.durCapped, reason = s.shards[0].m.grantDuration(ctx, shape.Duration, shape.MinDuration)
	if reason != "" {
		s.shards[0].m.metrics.requests.Inc()
		s.shards[0].m.metrics.rejections.Inc()
		return nil, reason, nil
	}
	for i, p := range preds {
		sh, fixed := s.homeShard(p)
		if fixed && p.View == NamedView && s.mode == MatchingMode {
			held, err := s.shards[sh].m.propertySlotHolder(p.Instance)
			if err != nil {
				return nil, "", err
			}
			fixed = !held
		}
		if fixed {
			g.fixed[sh] = append(g.fixed[sh], i)
		} else {
			g.floating = append(g.floating, floatPred{idx: i, named: p.View == NamedView})
		}
	}
	return g, "", nil
}

// involvedShards returns the shards a grant reserves: every release and
// fixed-predicate shard, plus — when anything floats, or wantProps asks
// for the property context regardless — the shards the candidate-index
// pre-filter says could contribute to the joint match. The answer is
// clamped to locked: a contributing shard whose lock the caller does not
// hold returns errPrefilterWiden (see grantCross Phase 1). A grant with
// nothing to reserve still reserves the lowest locked shard, so its
// rejection runs through the usual counters and response shape.
func (s *ShardedManager) involvedShards(g *crossGrant, wantProps bool, locked map[int]bool) (map[int]bool, error) {
	involved := make(map[int]bool)
	for sh := range g.releases {
		involved[sh] = true
	}
	for sh := range g.fixed {
		involved[sh] = true
	}
	prefiltered := len(g.floating) > 0 || wantProps
	if prefiltered {
		for sh := range s.contributingShards(g.preds, g.floating) {
			if !locked[sh] {
				return nil, errPrefilterWiden
			}
			involved[sh] = true
		}
	}
	if len(involved) == 0 {
		involved[sortedKeys(locked)[0]] = true
	}
	if skipped := len(s.shards) - len(involved); prefiltered && skipped > 0 {
		s.prefilterSkipped.Add(int64(skipped))
	}
	return involved, nil
}

// reserveShards opens a reservation on every shard in shards, ascending:
// each tentatively applies its release targets and grants its fixed
// predicates. The context is checked before each Reserve — the pipeline's
// cancellation point. One shard's rejection (returned, with nil error) or
// error aborts every open reservation: releases spring back into force on
// every shard (§4).
func (s *ShardedManager) reserveShards(ctx context.Context, g *crossGrant, shards map[int]bool) (*PromiseResponse, error) {
	for _, sh := range sortedKeys(shards) {
		if err := ctx.Err(); err != nil {
			abortAll(g.resvs)
			return nil, err
		}
		rr := g.shape
		rr.Releases = g.releases[sh]
		for _, i := range g.fixed[sh] {
			rr.Predicates = append(rr.Predicates, g.preds[i])
			rr.PredIdx = append(rr.PredIdx, g.orig(i))
		}
		resv, rej, err := s.shards[sh].m.Reserve(ctx, g.client, rr)
		if err != nil || rej != nil {
			abortAll(g.resvs)
			return rej, err
		}
		g.resvs[sh] = resv
	}
	return nil, nil
}

// abortAll rolls back every open reservation, ascending.
func abortAll(resvs map[int]*Reservation) {
	for _, sh := range sortedKeys(resvs) {
		resvs[sh].Abort()
	}
}

// matchPlan is a solved joint match as this engine applies it: slots that
// change shard (or node), slots re-backed within their shard, and the new
// predicates pinned to their instances.
type matchPlan struct {
	moves   []slotMigration
	realloc map[int]map[string]string // shard -> slot key -> instance
	pins    []pinnedGrant
}

// slotMigration re-homes one existing property sub-promise, keeping its
// id, client and expiry: its tag moves to inst on shard to. from is -1 for
// a slot arriving from another node (row then carries it, rebuilt from the
// wire) and to is -1 for one leaving this node.
type slotMigration struct {
	promiseID string
	from, to  int
	inst      string
	row       *Promise
	fromNode  string // the node an arriving slot left, for its event
}

// pinnedGrant grants one floating predicate onto a chosen instance, as a
// single-predicate sub-promise so the slot stays migratable.
type pinnedGrant struct {
	shard int
	pred  Predicate
	idx   int // position in the client's request
	inst  string
}

// solveFloat solves the joint match for the grant's floating predicates
// over its open reservations and turns the assignment into a plan. A nil
// plan means the predicates are not jointly satisfiable with the
// outstanding promises.
func (s *ShardedManager) solveFloat(g *crossGrant) (*matchPlan, error) {
	var keys []string
	var slots []JointSlot
	var cands []JointCand
	for _, sh := range sortedKeys(g.resvs) {
		pc, err := g.resvs[sh].PropertyContext()
		if err != nil {
			return nil, err
		}
		for _, sl := range pc.Slots {
			roam := RoamHome
			if sl.Migratable {
				roam = RoamAny
			}
			keys = append(keys, sl.Key)
			slots = append(slots, JointSlot{Loc: Loc{Shard: sh}, Expr: sl.Expr, Assigned: sl.Assigned, Roam: roam})
		}
		for _, c := range pc.Candidates {
			cands = append(cands, JointCand{Loc: Loc{Shard: sh}, Inst: c.Instance, Tentative: c.Tentative})
		}
	}
	preds := make([]JointPred, len(g.floating))
	for k, f := range g.floating {
		if p := g.preds[f.idx]; f.named {
			preds[k].Instance = p.Instance
		} else {
			preds[k].Expr = p.Expr
		}
	}
	assign, ok := SolveJoint(slots, preds, cands, s.mode)
	if !ok {
		return nil, nil
	}
	plan := &matchPlan{realloc: make(map[int]map[string]string)}
	for i, sl := range slots {
		j := assign[i]
		if j < 0 || cands[j].Inst.ID == sl.Assigned {
			continue
		}
		from, to := sl.Loc.Shard, cands[j].Loc.Shard
		if from == to {
			if plan.realloc[to] == nil {
				plan.realloc[to] = make(map[string]string)
			}
			plan.realloc[to][keys[i]] = cands[j].Inst.ID
			continue
		}
		pid, _, _ := parseSlotKey(keys[i])
		plan.moves = append(plan.moves, slotMigration{promiseID: pid, from: from, to: to, inst: cands[j].Inst.ID})
	}
	for k, f := range g.floating {
		c := cands[assign[len(slots)+k]]
		plan.pins = append(plan.pins, pinnedGrant{shard: c.Loc.Shard, pred: g.preds[f.idx], idx: g.orig(f.idx), inst: c.Inst.ID})
	}
	return plan, nil
}

// applyPlan applies a plan through the open reservations, releases
// strictly before acquisitions: migrating slots detach first, within-shard
// reallocations run per shard, migrating slots attach on their new shard,
// then the new predicates pin to their instances. Any failure aborts every
// reservation.
func applyPlan(resvs map[int]*Reservation, plan *matchPlan, d time.Duration) (err error) {
	defer func() {
		if err != nil {
			abortAll(resvs)
		}
	}()
	resv := func(sh int) (*Reservation, error) {
		if r := resvs[sh]; r != nil {
			return r, nil
		}
		return nil, fmt.Errorf("core: plan touches unreserved shard %d", sh)
	}
	for i := range plan.moves {
		if mg := &plan.moves[i]; mg.from >= 0 {
			r, err := resv(mg.from)
			if err != nil {
				return err
			}
			if mg.row, err = r.MigrateOut(mg.promiseID); err != nil {
				return err
			}
		}
	}
	for _, sh := range sortedKeys(plan.realloc) {
		r, err := resv(sh)
		if err == nil {
			err = r.ApplyRealloc(plan.realloc[sh])
		}
		if err != nil {
			return err
		}
	}
	for _, mg := range plan.moves {
		if mg.to >= 0 {
			r, err := resv(mg.to)
			if err == nil {
				err = r.MigrateIn(mg.row, mg.inst)
			}
			if err != nil {
				return err
			}
		}
	}
	for _, p := range plan.pins {
		r, err := resv(p.shard)
		if err == nil {
			err = r.GrantPinned([]Predicate{p.pred}, []int{p.idx}, []string{p.inst}, d)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// confirmPlan commits every open reservation in ascending shard order and
// returns the parts they granted, in that order. Commit of an open
// reservation cannot conflict (the shard lock is held), so a failure here
// is an internal invariant break: the rest abort and the parts already
// confirmed are handed back best-effort, so no promise the client never
// learned about outlives the call. The context is checked once more before
// the first Confirm; past it the grant is committed whole.
//
// With slots moving, the confirms make a promise vanish from its source
// shard's snapshot before the directory re-routes it; the migration
// seqlock brackets that window so lock-free readers can tell their miss
// may be this race rather than a definitive not-found. The moved slots'
// events publish once the directory is settled.
func (s *ShardedManager) confirmPlan(ctx context.Context, client string, resvs map[int]*Reservation, moves []slotMigration) ([]compositePart, error) {
	if err := ctx.Err(); err != nil {
		abortAll(resvs)
		return nil, err
	}
	migrating := len(moves) > 0
	if migrating {
		s.migSeq.Add(1)
	}
	var confirmed []compositePart
	for _, sh := range sortedKeys(resvs) {
		granted := resvs[sh].Granted()
		if err := resvs[sh].Confirm(); err != nil {
			if migrating {
				s.migSeq.Add(1)
			}
			abortAll(resvs)
			s.releaseParts(client, confirmed)
			return nil, err
		}
		for _, g := range granted {
			confirmed = append(confirmed, compositePart{shard: sh, id: g.ID, predIdx: g.PredIdx, expires: g.Expires})
		}
	}
	if !migrating {
		return confirmed, nil
	}
	s.commitMoves(moves)
	s.migSeq.Add(1)
	// The moved promises now live (and will expire) on their new shards;
	// their ids, clients and expiries are unchanged, and the shared bus
	// keeps their event streams continuous. A slot that left the node is
	// reported by its destination.
	now := s.clk.Now()
	var events []Event
	for _, mg := range moves {
		if mg.to < 0 {
			continue
		}
		s.shards[mg.to].m.trackExpiry(mg.row.ID, mg.row.Expires)
		reason := fmt.Sprintf("slot moved from shard %d to shard %d", mg.from, mg.to)
		if mg.from < 0 {
			reason = fmt.Sprintf("slot moved from node %s to node %s", mg.fromNode, strings.TrimSuffix(s.ns, "!"))
		}
		events = append(events, Event{
			Type: EventMigrated, PromiseID: mg.row.ID, Client: mg.row.Client,
			Time: now, Expires: mg.row.Expires, Reason: reason,
		})
	}
	if len(events) > 0 {
		s.bus.publish(events...)
	}
	return confirmed, nil
}

// commitMoves records confirmed slot moves in the directory (see
// redirect) and logs them. Called only while every shard lock the moves
// touched is held.
func (s *ShardedManager) commitMoves(moves []slotMigration) {
	s.dirMu.Lock()
	for _, mg := range moves {
		s.redirect(mg.promiseID, mg.to)
	}
	s.dirMu.Unlock()
	for _, mg := range moves {
		s.logDirMove(mg.promiseID, mg.to)
	}
}

// redirect re-routes one moved promise id. A slot that left the node (to <
// 0) loses its moved entry, so this node answers not-found and a cluster
// caller finds the promise at its new home. Otherwise the moved map points
// the id at its new shard, and a composite referencing it gets a fresh
// directory entry with the updated shard. Entries are replaced, never
// mutated: a concurrent lock-free reader holding the old pointer sees a
// consistent stale part list, runs into promise-not-found on the vacated
// shard, and retries against the fresh entry. Caller holds dirMu.
func (s *ShardedManager) redirect(id string, to int) {
	if to < 0 {
		s.moved.Delete(id)
		return
	}
	s.moved.Store(id, to)
	cid, ok := s.partOf[id]
	if !ok {
		return
	}
	v, ok := s.dir.Load(cid)
	if !ok {
		return
	}
	old := v.(*composite)
	fresh := &composite{
		client:  old.client,
		expires: old.expires,
		parts:   append([]compositePart(nil), old.parts...),
	}
	for i := range fresh.parts {
		if fresh.parts[i].id == id {
			fresh.parts[i].shard = to
		}
	}
	s.dir.Store(cid, fresh)
}

// releaseParts hands back sub-promises granted earlier in an operation
// that is now failing, in reverse grant order.
func (s *ShardedManager) releaseParts(client string, parts []compositePart) {
	for i := len(parts) - 1; i >= 0; i-- {
		_, _ = s.shards[parts[i].shard].m.Execute(context.Background(), Request{
			Client: client,
			Env:    []EnvEntry{{PromiseID: parts[i].id, Release: true}},
		})
	}
}
