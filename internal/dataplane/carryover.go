package dataplane

import (
	"fmt"
	"sort"

	"nfactor/internal/value"
)

// CarryDecision records, for one state variable of a new generation,
// whether the old generation's value carries over across a hot swap and
// why.
type CarryDecision struct {
	Var     string
	Carried bool
	Reason  string
}

// CarryOver computes the state a freshly synthesized generation should
// start from when it replaces a running one: for each variable of the
// new model (its pristine init state `init`), either the old
// generation's live value (`old`) carries over, or the variable resets
// to its new init. Classification (against each generation's own
// pristine init — NOT live state, so allocator Init/Step compare the
// models, not their progress) decides compatibility:
//
//   - flow-maps and owned-maps carry: they hold per-flow session state
//     whose meaning survives an entry-table change;
//   - allocators carry iff Init and Step agree — a reseeded or
//     restrided allocator would hand out ranges the carried owned-maps
//     don't decode to, so it resets (and renames downstream state only
//     bijectively, which Equiv tolerates);
//   - rotors carry iff Mod and Init agree;
//   - frozen scalars and replica-maps re-initialize: they are derived
//     from the new model's own init/config;
//   - class or value-kind mismatches reset, naming both sides.
//
// Either classification may be nil (e.g. an NF the classifier cannot
// shard); then a variable carries iff it exists on both sides with the
// same value kind. Decisions come back sorted by variable name.
func CarryOver(oldCls, newCls *Classification, old, init map[string]value.Value) (map[string]value.Value, []CarryDecision) {
	kinds := make(map[string]value.Kind, len(old))
	for n, v := range old {
		kinds[n] = v.Kind
	}
	decs := CarryDecisions(oldCls, newCls, kinds, init)
	out := make(map[string]value.Value, len(init))
	for _, d := range decs {
		if d.Carried {
			out[d.Var] = old[d.Var]
		} else {
			out[d.Var] = init[d.Var]
		}
	}
	if newCls != nil {
		bumpAllocators(newCls, out, decs)
	}
	return out, decs
}

// CarryDecisions is CarryOver's decision half: it needs only the old
// generation's live value kinds (oldKinds; a missing name means no old
// value), never a table entry, so a swap that hands state over by
// ownership decides in O(vars).
func CarryDecisions(oldCls, newCls *Classification, oldKinds map[string]value.Kind, init map[string]value.Value) []CarryDecision {
	names := make([]string, 0, len(init))
	for n := range init {
		names = append(names, n)
	}
	sort.Strings(names)

	decs := make([]CarryDecision, 0, len(names))
	for _, n := range names {
		iv := init[n]
		ov, ok := oldKinds[n]
		d := CarryDecision{Var: n}
		switch {
		case !ok:
			d.Reason = "new variable, no old value"
		case ov != iv.Kind:
			d.Reason = fmt.Sprintf("value kind changed (%s -> %s)", ov, iv.Kind)
		case oldCls == nil || newCls == nil:
			d.Carried, d.Reason = true, "carried by name and kind (unclassified state)"
		default:
			d.Carried, d.Reason = carryClassified(oldCls.Vars[n], newCls.Vars[n])
		}
		decs = append(decs, d)
	}
	if newCls != nil {
		resetOrphanedOwnedMaps(newCls, decs)
	}
	return decs
}

// resetOrphanedOwnedMaps resets any carried owned map whose allocator
// did not carry: the map's keys are points on the old allocator's
// lattice, which the reseeded or restrided allocator no longer decodes
// (and could re-allocate, colliding with the carried entries).
func resetOrphanedOwnedMaps(cls *Classification, decs []CarryDecision) {
	carried := make(map[string]bool, len(decs))
	for i := range decs {
		carried[decs[i].Var] = decs[i].Carried
	}
	for i := range decs {
		d := &decs[i]
		if !d.Carried {
			continue
		}
		vc := cls.Vars[d.Var]
		if vc == nil || vc.Class != ClassOwnedMap || carried[vc.Alloc] {
			continue
		}
		d.Carried = false
		d.Reason = fmt.Sprintf("owned-map reset: its allocator %s did not carry", vc.Alloc)
	}
}

// bumpAllocators advances each carried allocator past the high-water
// mark of the owned maps it keys. A sharded generation's merged
// allocator position counts allocations (the sequential-equivalence
// semantics), but unbalanced shards can have handed out values beyond
// that count; re-seeding shards from the count would re-allocate keys
// that are still live in the carried owned maps. The bumped seed is the
// smallest lattice point strictly past every carried key, so the new
// generation can never collide with retired state.
func bumpAllocators(cls *Classification, out map[string]value.Value, decs []CarryDecision) {
	for _, vc := range cls.Vars {
		if vc.Class != ClassOwnedMap {
			continue
		}
		m, ok := out[vc.Name]
		if !ok || m.Kind != value.KindMap || m.Map.Len() == 0 {
			continue
		}
		av := cls.Vars[vc.Alloc]
		cur, ok := out[vc.Alloc]
		if av == nil || av.Step == 0 || !ok || cur.Kind != value.KindInt {
			continue
		}
		seed := cur.I
		for _, k := range m.Map.Keys() {
			comp := k
			if vc.KeyPos >= 0 {
				if k.Kind != value.KindTuple || vc.KeyPos >= len(k.Tuple) {
					continue
				}
				comp = k.Tuple[vc.KeyPos]
			}
			if comp.Kind != value.KindInt {
				continue
			}
			if past := comp.I + av.Step; (past-seed)/av.Step > 0 {
				seed = past
			}
		}
		if seed != cur.I {
			out[vc.Alloc] = value.Int(seed)
			for i := range decs {
				if decs[i].Var == vc.Alloc {
					decs[i].Reason += fmt.Sprintf("; bumped %d -> %d past %s's high-water mark", cur.I, seed, vc.Name)
				}
			}
		}
	}
}

// carryClassified decides carry-over for a variable present (with the
// same value kind) in both generations, from its two classifications.
func carryClassified(ovc, nvc *VarClass) (bool, string) {
	if ovc == nil || nvc == nil {
		return true, "carried by name and kind (unclassified state)"
	}
	if ovc.Class != nvc.Class {
		return false, fmt.Sprintf("state class changed (%s -> %s)", ovc.Class, nvc.Class)
	}
	switch nvc.Class {
	case ClassFlowMap:
		return true, "flow-map session state"
	case ClassOwnedMap:
		return true, fmt.Sprintf("owned-map session state (keys from %s)", nvc.Alloc)
	case ClassAllocator:
		if ovc.Init != nvc.Init || ovc.Step != nvc.Step {
			return false, fmt.Sprintf("allocator reseeded (init %d step %d -> init %d step %d)",
				ovc.Init, ovc.Step, nvc.Init, nvc.Step)
		}
		return true, "allocator position (same init/step)"
	case ClassRotor:
		if ovc.Init != nvc.Init || ovc.Mod != nvc.Mod {
			return false, fmt.Sprintf("rotor changed (init %d mod %d -> init %d mod %d)",
				ovc.Init, ovc.Mod, nvc.Init, nvc.Mod)
		}
		return true, "rotor position (same init/mod)"
	case ClassFrozen:
		return false, "frozen scalar, re-initialized"
	case ClassReplicaMap:
		return false, "replica-map, re-initialized"
	}
	return false, "unknown state class"
}
