package core

import (
	"repro/internal/predicate"
	"repro/internal/resource"
)

// lazyMatcher solves the single-shard property-view assignment problem
// incrementally.
//
// A full Hopcroft–Karp run per grant (the obvious reading of §5's
// "satisfiability check") costs O(L·R) predicate evaluations just to build
// the bipartite graph, making grant latency quadratic in the number of
// outstanding property promises. But grants arrive one at a time, and the
// promise manager already stores a valid assignment for every existing slot
// (Promise.Assigned), so each grant only needs augmenting paths for the new
// (or invalidated) slots — with edges evaluated lazily, the common case
// touches O(R) predicates instead of O(L·R).
//
// The solve is the joint solver of globalmatch.go at a single location;
// this adapter translates between instance ids and vertex indices.
type lazyMatcher struct {
	slots []JointSlot
	cands []JointCand
}

func newLazyMatcher(exprs []predicate.Expr, cands []*resource.Instance) *lazyMatcher {
	lm := &lazyMatcher{slots: make([]JointSlot, len(exprs)), cands: make([]JointCand, len(cands))}
	for i, e := range exprs {
		lm.slots[i].Expr = e
	}
	for j, in := range cands {
		lm.cands[j].Inst = in
	}
	return lm
}

// solve computes an assignment saturating every slot, seeded from initial
// (instance id per slot, "" for unassigned). It returns the assigned
// instance ids and whether saturation succeeded. initial entries that are
// not valid candidates or no longer satisfy their predicate are treated as
// unassigned.
func (lm *lazyMatcher) solve(initial []string) ([]string, bool) {
	for i := range lm.slots {
		if i < len(initial) {
			lm.slots[i].Assigned = initial[i]
		}
	}
	assign, ok := SolveJoint(lm.slots, nil, lm.cands, MatchingMode)
	if !ok {
		return nil, false
	}
	out := make([]string, len(assign))
	for i, j := range assign {
		out[i] = lm.cands[j].Inst.ID
	}
	return out, true
}
