package core

import (
	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/resource"
)

// This file holds the one joint property solver. A property predicate can
// be satisfied by any instance that hosts it, and admitting it may require
// rearranging the tentative allocations of promises that live elsewhere
// (§5), so every grant that places property predicates solves one
// bipartite problem:
//
//   - left vertices: every existing active property slot, followed by the
//     request's new property predicates and its deferred named predicates
//     (named predicates whose instance is tentatively allocated to a
//     property promise — granting them means displacing that allocation,
//     which is itself a joint matching decision);
//   - right vertices: every candidate instance;
//   - edges: predicate satisfaction for property slots, identity for named
//     predicates.
//
// Slots and candidates are located at (group, shard): the single store is
// one location, a ShardedManager's shards are locations of group "", and
// a cluster's nodes are groups. The solve runs in two passes. Pass 1 pins
// every existing slot to its exact home: when it saturates — the common
// case — no allocation crosses a shard boundary. Pass 2 lets each slot
// roam as far as it says it may (its group, or anywhere); a slot whose
// best host lives elsewhere is then re-homed by the caller, keeping its
// promise id, client and expiry. With every slot free to roam, pass 2 is
// the exact single-store feasibility: location boundaries stop
// constraining the match.
//
// Both passes are seeded with the current assignments, so by the
// augmenting-path theorem only the new predicates (and any slots they
// displace) pay for path searches, and edges are evaluated lazily via
// matching.Incremental.

// Loc locates a slot or candidate: a group (a cluster node; "" in
// process) and a shard within it.
type Loc struct {
	Group string
	Shard int
}

// Roam says how far the joint match may move an existing slot.
type Roam int

const (
	// RoamHome keeps the slot at its exact (group, shard) home.
	RoamHome Roam = iota
	// RoamGroup lets the slot move to any shard of its own group.
	RoamGroup
	// RoamAny lets the slot move anywhere.
	RoamAny
)

// allows reports whether a slot homed at home may land at at.
func (r Roam) allows(home, at Loc) bool {
	switch r {
	case RoamAny:
		return true
	case RoamGroup:
		return home.Group == at.Group
	}
	return home == at
}

// JointSlot is one existing property slot: a left vertex seeded with the
// instance currently backing it.
type JointSlot struct {
	Loc      Loc
	Expr     predicate.Expr
	Assigned string
	Roam     Roam
}

// JointPred is one new left vertex: a property predicate free to land on
// any candidate, or — with Instance set — a deferred named predicate bound
// to exactly that instance.
type JointPred struct {
	Expr     predicate.Expr
	Instance string
}

// JointCand is one right vertex. Tentative marks an instance currently
// backing a slot: matching mode may rearrange it, first-fit may not.
type JointCand struct {
	Loc       Loc
	Inst      *resource.Instance
	Tentative bool
}

// SolveJoint solves the joint property match. It returns, for every slot
// and then every new predicate, the index in cands of the instance backing
// it, or ok=false when the predicates are not jointly satisfiable with the
// slots. Two candidates exporting the same instance id are one instance:
// the first in cands wins and the rest are ignored.
//
// In FirstFitMode (the greedy ablation) existing slots never move — their
// entries are matching.Unmatched — and each new predicate binds to the
// first free, non-tentative satisfying candidate, walking cands in the
// order the caller gives them.
func SolveJoint(slots []JointSlot, preds []JointPred, cands []JointCand, mode PropertyMode) (assign []int, ok bool) {
	byID := make(map[string]int, len(cands))
	shadowed := make([]bool, len(cands))
	for j, c := range cands {
		if _, dup := byID[c.Inst.ID]; dup {
			shadowed[j] = true
			continue
		}
		byID[c.Inst.ID] = j
	}
	nSlots, n := len(slots), len(slots)+len(preds)
	// Each left vertex's predicate is compiled once (propmatch.go) so the
	// common shapes evaluate straight off the property map; only shapes
	// the compiler refuses (references to the id/status builtins) pay for
	// full Eval.
	exprs := make([]predicate.Expr, n)
	compiled := make([]compiledPred, n)
	for l := range exprs {
		if l < nSlots {
			exprs[l] = slots[l].Expr
		} else if preds[l-nSlots].Instance == "" {
			exprs[l] = preds[l-nSlots].Expr
		}
		if exprs[l] != nil {
			compiled[l] = compilePred(exprs[l])
		}
	}
	sat := func(l, r int) bool {
		if shadowed[r] {
			return false
		}
		c := cands[r]
		if exprs[l] == nil {
			return c.Inst.ID == preds[l-nSlots].Instance
		}
		if f := compiled[l]; f != nil {
			return f(c.Inst.Props)
		}
		ok, err := predicate.Eval(exprs[l], c.Inst.Env())
		return err == nil && ok
	}

	unmatched := make([]int, n)
	for i := range unmatched {
		unmatched[i] = matching.Unmatched
	}
	if mode == FirstFitMode {
		assign = unmatched
		used := make([]bool, len(cands))
		for l := nSlots; l < n; l++ {
			for r := range cands {
				if !used[r] && !cands[r].Tentative && sat(l, r) {
					assign[l] = r
					used[r] = true
					break
				}
			}
			if assign[l] == matching.Unmatched {
				return nil, false
			}
		}
		return assign, true
	}

	seed := unmatched
	roams := false
	for i, sl := range slots {
		if j, found := byID[sl.Assigned]; found && sl.Assigned != "" {
			seed[i] = j
		}
		roams = roams || sl.Roam != RoamHome
	}
	solve := func(pass2 bool) ([]int, bool) {
		return matching.NewIncremental(n, len(cands), func(l, r int) bool {
			if l < nSlots {
				roam := RoamHome
				if pass2 {
					roam = slots[l].Roam
				}
				if !roam.allows(slots[l].Loc, cands[r].Loc) {
					return false
				}
			}
			return sat(l, r)
		}).Solve(seed)
	}
	if assign, ok = solve(false); ok || !roams {
		return assign, ok
	}
	return solve(true)
}
