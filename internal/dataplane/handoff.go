package dataplane

import (
	"fmt"
	"reflect"

	"nfactor/internal/value"
)

// State hand-off by ownership. A hot swap whose new plane lowers a
// carried variable exactly as the old plane does — same name, state
// class, value kind and shard count — does not export, carry and
// re-lower the variable's table: the new plane adopts the old plane's
// rmap (and scalar slot value) itself. That is O(vars), never O(table),
// and the carry audit holds by construction: the new plane holds the
// very same table object and a bit-equal slot (Holds). A sharded plane
// hands over each shard's tables and allocator positions verbatim, so
// nothing is merged, re-split or re-seeded.
//
// After a hand-off both planes share the adopted tables: the old plane
// must not process another packet. Telemetry sinks are never handed
// over — engine telemetry stays generation-local.

// arena is one state namespace's slice of an engine's flat state: the
// whole Engine, or one fused-chain stage's range.
type arena struct {
	slotNames, mapNames []string
	slots               []mval
	maps                []rmap
}

func (e *Engine) arena() arena {
	return arena{e.slotNames, e.mapNames, e.slots, e.maps}
}

func (e *ChainEngine) stageArena(i int) arena {
	st := e.stages[i]
	return arena{e.slotNames[st.slotLo:st.slotHi], e.mapNames[st.mapLo:st.mapHi],
		e.slots[st.slotLo:st.slotHi], e.maps[st.mapLo:st.mapHi]}
}

// find returns the slot or map index of name (-1 when absent).
func (a arena) find(name string) (slot, mi int) {
	slot, mi = -1, -1
	for i, n := range a.slotNames {
		if n == name {
			slot = i
		}
	}
	for i, n := range a.mapNames {
		if n == name {
			mi = i
		}
	}
	return slot, mi
}

// handOver makes a adopt from's variable name: the table itself for a
// map, the slot value for a scalar. The slices share their engine's
// backing arrays, so the write lands in the engine (and its evaluation
// context).
func (a arena) handOver(from arena, name string) error {
	slot, mi := a.find(name)
	fslot, fmi := from.find(name)
	switch {
	case mi >= 0 && fmi >= 0:
		a.maps[mi] = from.maps[fmi]
	case slot >= 0 && fslot >= 0:
		a.slots[slot] = from.slots[fslot]
	default:
		return fmt.Errorf("dataplane: hand-off of %q: lowered differently on the two planes", name)
	}
	return nil
}

// holds reports whether a holds from's variable by ownership: the same
// table object, or a bit-equal scalar slot.
func (a arena) holds(from arena, name string) bool {
	slot, mi := a.find(name)
	fslot, fmi := from.find(name)
	switch {
	case mi >= 0 && fmi >= 0:
		return reflect.ValueOf(a.maps[mi]).UnsafePointer() == reflect.ValueOf(from.maps[fmi]).UnsafePointer()
	case slot >= 0 && fslot >= 0:
		return a.slots[slot] == from.slots[fslot]
	}
	return false
}

// kinds reports every variable's live value kind: maps are maps, slots
// report their current scalar's kind. O(vars).
func (a arena) kinds() map[string]value.Kind {
	out := make(map[string]value.Kind, len(a.slotNames)+len(a.mapNames))
	for _, n := range a.mapNames {
		out[n] = value.KindMap
	}
	for i, n := range a.slotNames {
		out[n] = a.slots[i].toValue().Kind
	}
	return out
}

// HandOver makes e adopt from's state variable name by ownership (see
// the package notes above). Call only between batches, before e
// serves its first packet.
func (e *Engine) HandOver(from *Engine, name string) error {
	return e.arena().handOver(from.arena(), name)
}

// Holds reports whether e holds from's variable name by ownership.
func (e *Engine) Holds(from *Engine, name string) bool {
	return e.arena().holds(from.arena(), name)
}

// StateKinds reports each state variable's live value kind, O(vars):
// what carry-over decisions need from a live plane, without exporting
// a single table entry.
func (e *Engine) StateKinds() map[string]value.Kind { return e.arena().kinds() }

// HandOverStage makes stage i of e adopt stage i of from's variable
// name by ownership.
func (e *ChainEngine) HandOverStage(from *ChainEngine, i int, name string) error {
	if i >= len(e.stages) || i >= len(from.stages) {
		return fmt.Errorf("dataplane: hand-off of stage %d: chains have %d and %d stages", i, len(e.stages), len(from.stages))
	}
	return e.stageArena(i).handOver(from.stageArena(i), name)
}

// HoldsStage reports whether stage i of e holds stage i of from's
// variable name by ownership.
func (e *ChainEngine) HoldsStage(from *ChainEngine, i int, name string) bool {
	if i >= len(e.stages) || i >= len(from.stages) {
		return false
	}
	return e.stageArena(i).holds(from.stageArena(i), name)
}

// StageStateKinds reports stage i's live value kinds, O(vars).
func (e *ChainEngine) StageStateKinds(i int) map[string]value.Kind { return e.stageArena(i).kinds() }

// HandOver makes every shard of s adopt the same shard of from's
// variable name. Both planes must have the same shard count and
// classify the variable alike. An allocator or rotor also takes over
// from's lattice origin (its classified Init): the handed-over shard
// positions are offsets on that lattice, and the owner-routing decode
// and the merged sequential view both read it.
func (s *Sharded) HandOver(from *Sharded, name string) error {
	if len(s.engines) != len(from.engines) {
		return fmt.Errorf("dataplane: hand-off of %q: %d shards from %d", name, len(s.engines), len(from.engines))
	}
	if err := adoptClass(s.cls, from.cls, name); err != nil {
		return err
	}
	for sh := range s.engines {
		if err := s.engines[sh].HandOver(from.engines[sh], name); err != nil {
			return err
		}
	}
	s.reorigin(name, s.cls.Vars[name].Init)
	return nil
}

// adoptClass checks name is classified alike on both planes and, for
// an allocator or rotor, takes over from's lattice origin.
func adoptClass(cls, from *Classification, name string) error {
	vc, fvc := cls.Vars[name], from.Vars[name]
	if vc == nil || fvc == nil || vc.Class != fvc.Class {
		return fmt.Errorf("dataplane: hand-off of %q: classified differently on the two planes", name)
	}
	if vc.Class == ClassAllocator || vc.Class == ClassRotor {
		adopted := *vc
		adopted.Init = fvc.Init
		cls.Vars[name] = &adopted
	}
	return nil
}

// sameClass reports whether name is classified identically, lattice
// origin included, on both planes.
func sameClass(cls, from *Classification, name string) bool {
	vc, fvc := cls.Vars[name], from.Vars[name]
	return vc != nil && fvc != nil && *vc == *fvc
}

// reorigin points every owner-routing demand decoding allocator alloc
// at its lattice origin.
func (s *Sharded) reorigin(alloc string, init int64) {
	for i := range s.planProgs {
		if p := &s.planProgs[i]; p.kind == demandOwner && p.alloc == alloc {
			p.init = init
		}
	}
	for i := range s.route.steps {
		if p := &s.route.steps[i].d; p.kind == demandOwner && p.alloc == alloc {
			p.init = init
		}
	}
}

// Holds reports whether every shard of s holds the same shard of
// from's variable name by ownership, on the same lattice origin.
func (s *Sharded) Holds(from *Sharded, name string) bool {
	if len(s.engines) != len(from.engines) || !sameClass(s.cls, from.cls, name) {
		return false
	}
	for sh := range s.engines {
		if !s.engines[sh].Holds(from.engines[sh], name) {
			return false
		}
	}
	return true
}

// StateKinds reports each state variable's live value kind (shard 0's:
// every shard lowers a variable alike).
func (s *Sharded) StateKinds() map[string]value.Kind { return s.engines[0].StateKinds() }

// HandOverStage makes every shard's stage i adopt the same shard's
// stage i of from's variable name, taking over the allocator or rotor
// lattice origin like Sharded.HandOver. Chains never owner-route, so
// only the merged sequential view reads the origin.
func (s *ShardedChain) HandOverStage(from *ShardedChain, i int, name string) error {
	if len(s.engines) != len(from.engines) || i >= len(s.clss) || i >= len(from.clss) {
		return fmt.Errorf("dataplane: hand-off of %q: %d shards x %d stages from %d x %d",
			name, len(s.engines), len(s.clss), len(from.engines), len(from.clss))
	}
	if err := adoptClass(s.clss[i], from.clss[i], name); err != nil {
		return err
	}
	for sh := range s.engines {
		if err := s.engines[sh].HandOverStage(from.engines[sh], i, name); err != nil {
			return err
		}
	}
	return nil
}

// HoldsStage reports whether every shard's stage i holds the same
// shard's stage i of from's variable name, on the same lattice origin.
func (s *ShardedChain) HoldsStage(from *ShardedChain, i int, name string) bool {
	if len(s.engines) != len(from.engines) || i >= len(s.clss) || i >= len(from.clss) ||
		!sameClass(s.clss[i], from.clss[i], name) {
		return false
	}
	for sh := range s.engines {
		if !s.engines[sh].HoldsStage(from.engines[sh], i, name) {
			return false
		}
	}
	return true
}

// StageStateKinds reports stage i's live value kinds (shard 0's).
func (s *ShardedChain) StageStateKinds(i int) map[string]value.Kind {
	return s.engines[0].StageStateKinds(i)
}
