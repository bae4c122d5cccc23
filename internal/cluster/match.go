package cluster

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/resource"
)

// This file lifts the joint property match to cluster granularity: the
// FedContexts the member nodes exported at reserve time become located
// slots and candidates — a node is a group, its shards are shards — and
// core.SolveJoint places the request's floating predicates. A slot that is
// not Migratable stays at its exact (node, shard) home; a Migratable one
// may re-home to any shard of its own node (the node converts the
// reallocation into an internal migration itself); a CrossNode one — a
// plain single-predicate property sub-promise, not a composite member —
// may re-home to any node, travelling by MigrateOut/MigrateIn with its
// promise id, client and expiry intact.

// floatRef is one new left vertex: a property predicate free to land
// anywhere, or a deferred named predicate bound to exactly one instance.
type floatRef struct {
	idx   int // position in the request's predicate list
	named bool
}

// nodeContext pairs a member's id with the match state it exported.
type nodeContext struct {
	node string
	fc   *core.FedContext
}

// slotPromiseID extracts the promise id from a slot key ("<promise>#<idx>").
func slotPromiseID(key string) (string, bool) {
	i := strings.LastIndexByte(key, '#')
	if i <= 0 {
		return "", false
	}
	return key[:i], true
}

// candInstance rebuilds an exported candidate as an instance — the same
// id/status builtins plus properties a local matcher sees.
func candInstance(c core.FedCandidate) *resource.Instance {
	status := resource.Available
	if c.Tentative {
		status = resource.Promised
	}
	return &resource.Instance{ID: c.Instance, Status: status, Props: c.Props}
}

// matchAcrossNodes solves the joint property match over every exported
// context and writes the result into the nodes' confirm specs. preds is
// the request's full predicate list; floating indexes into it. The
// contexts arrive in node, shard and instance id order, which is the order
// first-fit walks. It reports false when the floating predicates are not
// jointly satisfiable with the outstanding promises.
func matchAcrossNodes(ctxs []nodeContext, preds []core.Predicate, floating []floatRef, mode core.PropertyMode, specs map[string]*core.FedConfirmSpec) (bool, error) {
	var exported []core.FedSlot
	var slots []core.JointSlot
	var cands []core.JointCand
	exprs := make(map[string]predicate.Expr)
	for _, nc := range ctxs {
		if nc.fc == nil {
			continue
		}
		for _, sl := range nc.fc.Slots {
			e, ok := exprs[sl.Expr]
			if !ok {
				var err error
				if e, err = predicate.Parse(sl.Expr); err != nil {
					return false, fmt.Errorf("cluster: node %s slot %s: bad expression %q: %v", nc.node, sl.Key, sl.Expr, err)
				}
				exprs[sl.Expr] = e
			}
			roam := core.RoamHome
			if sl.Migratable {
				roam = core.RoamGroup
				if sl.CrossNode {
					roam = core.RoamAny
				}
			}
			exported = append(exported, sl)
			slots = append(slots, core.JointSlot{Loc: core.Loc{Group: nc.node, Shard: sl.Shard}, Expr: e, Assigned: sl.Assigned, Roam: roam})
		}
		for _, c := range nc.fc.Candidates {
			cands = append(cands, core.JointCand{Loc: core.Loc{Group: nc.node, Shard: c.Shard}, Inst: candInstance(c), Tentative: c.Tentative})
		}
	}
	jp := make([]core.JointPred, len(floating))
	for k, f := range floating {
		if p := preds[f.idx]; f.named {
			jp[k].Instance = p.Instance
		} else {
			jp[k].Expr = p.Expr
		}
	}
	assign, ok := core.SolveJoint(slots, jp, cands, mode)
	if !ok {
		return false, nil
	}
	for i, sl := range exported {
		j := assign[i]
		if j < 0 || cands[j].Inst.ID == sl.Assigned {
			continue
		}
		from, to, inst := slots[i].Loc.Group, cands[j].Loc.Group, cands[j].Inst.ID
		if from == to {
			specs[to].Realloc = append(specs[to].Realloc, core.FedRealloc{Slot: sl.Key, Instance: inst})
			continue
		}
		pid, ok := slotPromiseID(sl.Key)
		if !ok {
			return false, fmt.Errorf("cluster: malformed slot key %q", sl.Key)
		}
		specs[from].MigrateOut = append(specs[from].MigrateOut, pid)
		specs[to].MigrateIn = append(specs[to].MigrateIn, core.FedMigrateIn{
			ID: pid, Client: sl.Client, Expr: sl.Expr, Expires: sl.Expires, Instance: inst, FromNode: from,
		})
	}
	for k, f := range floating {
		c := cands[assign[len(slots)+k]]
		specs[c.Loc.Group].Pinned = append(specs[c.Loc.Group].Pinned, core.FedPinned{
			Predicate: preds[f.idx], PredIdx: f.idx, Instance: c.Inst.ID,
		})
	}
	return true, nil
}
