package core

import (
	"slices"
	"testing"

	"repro/internal/matching"
	"repro/internal/predicate"
	"repro/internal/resource"
)

// TestSolveJoint pins the joint solver's contract case by case: which
// pass places a slot, how far each roam level lets it move, how deferred
// named predicates displace slots, the order first-fit walks, and which
// of two candidates sharing an instance id counts.
func TestSolveJoint(t *testing.T) {
	const none = matching.Unmatched
	at := func(group string, shard int) Loc { return Loc{Group: group, Shard: shard} }
	cand := func(id string, loc Loc, floor int64, corner, tentative bool) JointCand {
		status := resource.Available
		if tentative {
			status = resource.Promised
		}
		return JointCand{Loc: loc, Tentative: tentative, Inst: &resource.Instance{
			ID: id, Status: status,
			Props: map[string]predicate.Value{"floor": predicate.Int(floor), "corner": predicate.Bool(corner)},
		}}
	}
	slot := func(loc Loc, src, assigned string, roam Roam) JointSlot {
		return JointSlot{Loc: loc, Expr: predicate.MustParse(src), Assigned: assigned, Roam: roam}
	}
	prop := func(src string) JointPred { return JointPred{Expr: predicate.MustParse(src)} }

	// roamCands holds a slot's current host a1 (the only corner room) on
	// A/0, a free room on the slot's own group at A/1, and one on group B.
	roamCands := []JointCand{
		cand("a1", at("A", 0), 1, true, true),
		cand("a2", at("A", 1), 1, false, false),
		cand("b1", at("B", 0), 1, false, false),
	}
	wantsCorner := []JointPred{prop("corner")}

	cases := []struct {
		name  string
		slots []JointSlot
		preds []JointPred
		cands []JointCand
		mode  PropertyMode
		want  []int // candidate index per slot then predicate; nil: unsatisfiable
	}{
		{
			name:  "pass 1 keeps a roaming slot at its exact home",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamAny)},
			preds: []JointPred{prop("floor >= 2")},
			cands: []JointCand{
				cand("b1", at("B", 0), 1, false, false),
				cand("a1", at("A", 0), 1, false, true),
				cand("a2", at("A", 0), 2, false, false),
			},
			want: []int{1, 2},
		},
		{
			name:  "pass 1 re-backs a slot within its home",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamHome)},
			preds: wantsCorner,
			cands: []JointCand{
				cand("a1", at("A", 0), 1, true, true),
				cand("a3", at("A", 0), 1, false, false),
				cand("b1", at("B", 0), 1, false, false),
			},
			want: []int{1, 0},
		},
		{
			name:  "pass 2 home: a slot that may not move blocks the grant",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamHome)},
			preds: wantsCorner,
			cands: roamCands,
			want:  nil,
		},
		{
			name:  "pass 2 group: the slot moves to another shard of its group",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamGroup)},
			preds: wantsCorner,
			cands: roamCands,
			want:  []int{1, 0},
		},
		{
			name:  "pass 2 group: no room in the group blocks the grant",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamGroup)},
			preds: wantsCorner,
			cands: []JointCand{roamCands[0], roamCands[2]},
			want:  nil,
		},
		{
			name:  "pass 2 any: the slot moves to another group",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamAny)},
			preds: wantsCorner,
			cands: []JointCand{roamCands[0], roamCands[2]},
			want:  []int{1, 0},
		},
		{
			name:  "a deferred named predicate displaces the slot holding its instance",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamAny)},
			preds: []JointPred{{Instance: "a1"}},
			cands: roamCands,
			want:  []int{1, 0},
		},
		{
			name:  "a deferred named predicate whose instance is not offered fails",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamAny)},
			preds: []JointPred{{Instance: "zz"}},
			cands: roamCands,
			want:  nil,
		},
		{
			name:  "first-fit walks candidates in the caller's order, skipping tentative ones",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "t", RoamAny)},
			preds: []JointPred{prop("floor >= 2"), prop("floor >= 1")},
			cands: []JointCand{
				cand("t", at("A", 0), 9, false, true),
				cand("c3", at("B", 0), 3, false, false),
				cand("c1", at("A", 0), 1, false, false),
				cand("c2", at("A", 1), 2, false, false),
			},
			mode: FirstFitMode,
			want: []int{none, 1, 2},
		},
		{
			name:  "first-fit never rearranges",
			slots: []JointSlot{slot(at("A", 0), "floor >= 1", "a1", RoamAny)},
			preds: wantsCorner,
			cands: roamCands,
			mode:  FirstFitMode,
			want:  nil,
		},
		{
			name:  "two groups exporting one instance id: the first wins",
			preds: []JointPred{prop("floor >= 1")},
			cands: []JointCand{
				cand("x", at("A", 0), 1, false, false),
				cand("x", at("B", 0), 5, false, false),
			},
			want: []int{0},
		},
		{
			name:  "two groups exporting one instance id: the shadowed copy never matches",
			preds: []JointPred{prop("floor >= 5")},
			cands: []JointCand{
				cand("x", at("A", 0), 1, false, false),
				cand("x", at("B", 0), 5, false, false),
			},
			want: nil,
		},
		{
			name:  "first-fit ignores the shadowed copy too",
			preds: []JointPred{prop("floor >= 5")},
			cands: []JointCand{
				cand("x", at("A", 0), 1, false, false),
				cand("x", at("B", 0), 5, false, false),
			},
			mode: FirstFitMode,
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := SolveJoint(tc.slots, tc.preds, tc.cands, tc.mode)
			if ok != (tc.want != nil) || !slices.Equal(got, tc.want) {
				t.Fatalf("SolveJoint = %v, %v; want %v", got, ok, tc.want)
			}
		})
	}
}
