package model

import (
	"strings"
	"testing"

	"nfactor/internal/solver"
	"nfactor/internal/symexec"
	"nfactor/internal/value"
)

func iv(i int64) solver.Term  { return solver.Const{V: value.Int(i)} }
func sv(s string) solver.Term { return solver.Const{V: value.Str(s)} }

// a tiny hand-built path set: a counter NF that forwards port-80 packets
// and counts them.
func toyPaths() []*symexec.Path {
	eq80 := solver.Bin{Op: "==", X: solver.Var{Name: "pkt.dport"}, Y: iv(80)}
	rrMode := solver.Bin{Op: "==", X: solver.Var{Name: "mode"}, Y: sv("RR")}
	inc := solver.Bin{Op: "+", X: solver.Var{Name: "count@0"}, Y: iv(1)}
	return []*symexec.Path{
		{
			Conds: []solver.Term{rrMode, eq80},
			Sends: []symexec.SendRec{{
				Fields: map[string]solver.Term{
					"dport": solver.Var{Name: "pkt.dport"},
					"ttl":   solver.Bin{Op: "-", X: solver.Var{Name: "pkt.ttl"}, Y: iv(1)},
				},
				Iface: sv("eth1"),
			}},
			Updates: []symexec.Update{
				{Name: "count", Val: inc},
				{Name: "log_seen", Val: inc},
			},
		},
		{
			Conds: []solver.Term{rrMode, solver.Not(eq80)},
		},
	}
}

func toyModel() *Model {
	return Build(toyPaths(), BuildOptions{
		NFName:  "toy",
		PktVar:  "pkt",
		CfgVars: map[string]bool{"mode": true},
		OISVars: map[string]bool{"count": true},
		LogVars: map[string]bool{"log_seen": true},
	})
}

func TestBuildClassification(t *testing.T) {
	m := toyModel()
	if len(m.Entries) != 2 {
		t.Fatalf("entries = %d", len(m.Entries))
	}
	e := m.Entries[0]
	if len(e.Config) != 1 || !strings.Contains(e.Config[0].String(), "mode") {
		t.Errorf("config = %v", e.Config)
	}
	if len(e.FlowMatch) != 1 || !strings.Contains(e.FlowMatch[0].String(), "pkt.dport") {
		t.Errorf("flow match = %v", e.FlowMatch)
	}
	if len(e.StateMatch) != 0 {
		t.Errorf("state match = %v", e.StateMatch)
	}
	// Log update filtered, state update kept.
	if len(e.Updates) != 1 || e.Updates[0].Name != "count" {
		t.Errorf("updates = %v", e.Updates)
	}
	if m.Entries[1].Dropped() != true {
		t.Error("second entry should be a drop")
	}
}

func TestStateMatchClassification(t *testing.T) {
	p := &symexec.Path{
		Conds: []solver.Term{
			solver.In{K: solver.Var{Name: "pkt.sip"}, M: solver.MapVar{Name: "seen@0"}},
		},
	}
	m := Build([]*symexec.Path{p}, BuildOptions{OISVars: map[string]bool{"seen": true}})
	if len(m.Entries[0].StateMatch) != 1 {
		t.Errorf("membership condition not classified as state match: %+v", m.Entries[0])
	}
}

func TestTablesGroupByConfig(t *testing.T) {
	m := toyModel()
	tables := m.Tables()
	if len(tables) != 1 {
		t.Fatalf("tables = %d, want 1 (both entries share mode==RR)", len(tables))
	}
	if len(tables[0].Entries) != 2 {
		t.Errorf("entries in table = %d", len(tables[0].Entries))
	}
}

func TestInstanceProcess(t *testing.T) {
	m := toyModel()
	inst, err := NewInstance(m,
		map[string]value.Value{"mode": value.Str("RR")},
		map[string]value.Value{"count": value.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	pkt := value.NewPacket(map[string]value.Value{
		"dport": value.Int(80), "ttl": value.Int(64),
	})
	out, err := inst.Process(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped || len(out.Sent) != 1 {
		t.Fatalf("out = %+v", out)
	}
	if out.Sent[0].Iface != "eth1" {
		t.Errorf("iface = %q", out.Sent[0].Iface)
	}
	if out.Sent[0].Pkt.Pkt.Fields["ttl"].I != 63 {
		t.Errorf("ttl = %v", out.Sent[0].Pkt.Pkt.Fields["ttl"])
	}
	if inst.State()["count"].I != 1 {
		t.Errorf("count = %v", inst.State()["count"])
	}
	// Non-matching packet: default drop, no state change.
	out, err = inst.Process(value.NewPacket(map[string]value.Value{
		"dport": value.Int(22), "ttl": value.Int(64),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Dropped {
		t.Error("port-22 packet not dropped")
	}
	if inst.State()["count"].I != 1 {
		t.Error("drop changed state")
	}
}

func TestInstanceMissingConfig(t *testing.T) {
	m := toyModel()
	if _, err := NewInstance(m, nil, map[string]value.Value{"count": value.Int(0)}); err == nil {
		t.Error("missing config did not error")
	}
	if _, err := NewInstance(m, map[string]value.Value{"mode": value.Str("RR")}, nil); err == nil {
		t.Error("missing state did not error")
	}
}

func TestInstanceRejectsNonPacket(t *testing.T) {
	m := toyModel()
	inst, _ := NewInstance(m,
		map[string]value.Value{"mode": value.Str("RR")},
		map[string]value.Value{"count": value.Int(0)})
	if _, err := inst.Process(value.Int(1)); err == nil {
		t.Error("non-packet did not error")
	}
}

func TestCompileToyModel(t *testing.T) {
	m := toyModel()
	prog, err := Compile(m,
		map[string]value.Value{"mode": value.Str("RR")},
		map[string]value.Value{"count": value.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	src := lang_Print(prog)
	for _, want := range []string{"mode = \"RR\"", "count = 0", "send(pkt", "return;"} {
		if !strings.Contains(src, want) {
			t.Errorf("compiled source missing %q:\n%s", want, src)
		}
	}
}

func TestRenderToy(t *testing.T) {
	out := Render(toyModel())
	for _, want := range []string{
		"NFactor model for toy",
		"config: (mode == \"RR\")",
		"ttl := (pkt.ttl - 1)",
		"count := (count@0 + 1)",
		"drop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Identity field (dport := pkt.dport) must not clutter the action.
	if strings.Contains(out, "dport := pkt.dport") {
		t.Errorf("identity transform rendered:\n%s", out)
	}
}

func TestCompileMapUpdateOrdering(t *testing.T) {
	// An entry storing two keys whose values read the pre-state must
	// evaluate both before committing either.
	m0 := solver.MapVar{Name: "m@0"}
	sel := solver.Select{M: m0, K: sv("a")}
	p := &symexec.Path{
		Conds: []solver.Term{solver.In{K: sv("a"), M: m0}},
		Updates: []symexec.Update{{
			Name: "m",
			Val: solver.Store{
				M: solver.Store{M: m0, K: sv("a"), V: iv(99)},
				K: sv("b"),
				V: sel, // reads pre-state m@0["a"], NOT the stored 99
			},
		}},
	}
	m := Build([]*symexec.Path{p}, BuildOptions{OISVars: map[string]bool{"m": true}})
	init := value.NewMap()
	_ = init.Map.Set(value.Str("a"), value.Int(7))
	prog, err := Compile(m, nil, map[string]value.Value{"m": init})
	if err != nil {
		t.Fatal(err)
	}
	// Execute the compiled program and check m["b"] == 7 (the pre-state
	// value), not 99.
	in, err := newInterp(prog)
	if err != nil {
		t.Fatal(err)
	}
	pkt := value.NewPacket(nil)
	if _, err := in.Process(pkt); err != nil {
		t.Fatal(err)
	}
	got, _, _ := in.Globals()["m"].Map.Get(value.Str("b"))
	if got.I != 7 {
		t.Errorf("m[b] = %v, want 7 (pre-state read ordering violated)", got)
	}
}

// TestInstanceInPlaceMapUpdates pins the in-place commit of Store/Del
// chains: every key and value evaluates against the pre-state, a map
// copied into another variable is a snapshot (never aliased by a later
// in-place write), and an unhashable key fails before anything commits.
func TestInstanceInPlaceMapUpdates(t *testing.T) {
	k := solver.Var{Name: "pkt.dport"}
	m := &Model{
		OISVars: []string{"seen", "snap"},
		Entries: []Entry{
			{ // dport 1: snap := seen@0; seen[dport] := len(seen@0); del seen[0]
				FlowMatch: []solver.Term{solver.Bin{Op: "==", X: k, Y: solver.Const{V: value.Int(1)}}},
				Updates: []Assign{
					{Name: "snap", Val: solver.MapVar{Name: "seen@0"}},
					{Name: "seen", Val: solver.Del{
						M: solver.Store{M: solver.MapVar{Name: "seen@0"}, K: k,
							V: solver.Call{Fn: "len", Args: []solver.Term{solver.MapVar{Name: "seen@0"}}}},
						K: solver.Const{V: value.Int(0)}}},
				},
			},
			{ // otherwise: seen[(dport, [])] — a list in a key is unhashable
				Updates: []Assign{{Name: "seen", Val: solver.Store{M: solver.MapVar{Name: "seen@0"},
					K: solver.Tuple{Elems: []solver.Term{k, solver.Const{V: value.NewList()}}}, V: k}}},
			},
		},
	}
	seen := value.NewMap()
	_ = seen.Map.Set(value.Int(0), value.Int(7))
	inst, err := NewInstance(m, nil, map[string]value.Value{"seen": seen, "snap": value.NewMap()})
	if err != nil {
		t.Fatal(err)
	}
	if seen.Map.Len() != 1 {
		t.Fatal("NewInstance must not share the caller's initial maps")
	}
	pkt := func(port int64) value.Value {
		return value.NewPacket(map[string]value.Value{"dport": value.Int(port)})
	}
	if _, err := inst.Process(pkt(1)); err != nil {
		t.Fatal(err)
	}
	st := inst.State()
	if got, _, _ := st["seen"].Map.Get(value.Int(1)); st["seen"].Map.Len() != 1 || got.I != 1 {
		t.Errorf("seen = %s, want {1: 1} (value read from the pre-state, key 0 deleted)", st["seen"])
	}
	if _, ok, _ := st["snap"].Map.Get(value.Int(0)); !ok || st["snap"].Map.Len() != 1 {
		t.Errorf("snap = %s, want the pre-state snapshot {0: 7}", st["snap"])
	}
	before := st["seen"].String()
	if _, err := inst.Process(pkt(2)); err == nil {
		t.Fatal("unhashable key did not error")
	}
	if after := inst.State()["seen"].String(); after != before {
		t.Errorf("failed update committed: seen %s -> %s", before, after)
	}
}
