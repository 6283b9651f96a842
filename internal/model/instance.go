package model

import (
	"fmt"
	"strings"

	"nfactor/internal/interp"
	"nfactor/internal/netpkt"
	"nfactor/internal/solver"
	"nfactor/internal/telemetry"
	"nfactor/internal/value"
)

// Instance is a running model: the synthesized tables plus concrete
// configuration and mutable state. It processes packets with the same
// observable behaviour as the original NF program — the property the §5
// accuracy experiment checks.
type Instance struct {
	m      *Model
	config map[string]value.Value
	state  map[string]value.Value
	tel    *telemetry.Sink
}

// NewInstance creates a model instance. config provides concrete values
// for the model's configuration variables; initState the initial values
// of its state variables (both typically taken from the original
// program's global initializers).
func NewInstance(m *Model, config, initState map[string]value.Value) (*Instance, error) {
	for _, v := range m.CfgVars {
		if _, ok := config[v]; !ok {
			return nil, fmt.Errorf("model: missing configuration value for %q", v)
		}
	}
	for _, v := range m.OISVars {
		if _, ok := initState[v]; !ok {
			return nil, fmt.Errorf("model: missing initial state for %q", v)
		}
	}
	st := make(map[string]value.Value, len(initState))
	for k, v := range initState {
		st[k] = v.Clone()
	}
	cf := make(map[string]value.Value, len(config))
	for k, v := range config {
		cf[k] = v.Clone()
	}
	return &Instance{m: m, config: cf, state: st, tel: telemetry.NewSink(len(m.Entries))}, nil
}

// State returns the instance's current state variable values.
func (ins *Instance) State() map[string]value.Value { return ins.state }

// Sink returns the instance's telemetry sink.
func (ins *Instance) Sink() *telemetry.Sink { return ins.tel }

// Telemetry snapshots the instance's counters, gauging every state
// variable's current size (map entry counts; scalars gauge as 1).
func (ins *Instance) Telemetry() telemetry.Snapshot {
	sizes := make(map[string]int, len(ins.state))
	for name, v := range ins.state {
		if v.Kind == value.KindMap {
			sizes[name] = v.Map.Len()
		} else {
			sizes[name] = 1
		}
	}
	return ins.tel.Snapshot("model", sizes)
}

// env resolves term variables for one packet: pkt.* from the packet
// fields, name@0 from the current state, bare names from configuration.
type env struct {
	ins *Instance
	pkt value.Value
}

// Lookup implements solver.Env.
func (e *env) Lookup(name string) (value.Value, bool) {
	if f, ok := strings.CutPrefix(name, "pkt."); ok {
		v, ok := e.pkt.Pkt.Fields[f]
		return v, ok
	}
	if base, ok := strings.CutSuffix(name, "@0"); ok {
		v, ok := e.ins.state[base]
		return v, ok
	}
	v, ok := e.ins.config[name]
	return v, ok
}

// Process runs one packet through the model: the first entry whose guard
// holds fires; its sends are emitted and its state transitions committed.
// No matching entry means the implicit drop (§3.2 "Drop Action").
func (ins *Instance) Process(pkt value.Value) (*interp.Output, error) {
	out, _, err := ins.ProcessTraced(pkt)
	return out, err
}

// ProcessTraced is Process, additionally reporting the index of the entry
// that fired (-1 for the implicit default drop). Model-guided test
// generation (internal/buzz) uses it to measure entry coverage.
func (ins *Instance) ProcessTraced(pkt value.Value) (*interp.Output, int, error) {
	return ins.process(pkt, nil)
}

// ProcessExplain is Process in provenance mode: the returned PacketTrace
// records every guard evaluated with its outcome, the entry that fired,
// the packets sent and the state transitions applied.
func (ins *Instance) ProcessExplain(pkt value.Value) (*interp.Output, *telemetry.PacketTrace, error) {
	tr := &telemetry.PacketTrace{Packet: pktString(pkt), Backend: "model", Entry: -1}
	out, entry, err := ins.process(pkt, tr)
	if err != nil {
		tr.Err = err.Error()
		return nil, tr, err
	}
	tr.Entry = entry
	tr.Dropped = out.Dropped
	for _, s := range out.Sent {
		str := pktString(s.Pkt)
		if s.Iface != "" {
			str += " via " + s.Iface
		}
		tr.Sent = append(tr.Sent, str)
	}
	return out, tr, nil
}

// pktString renders a packet value through the wire lens when it
// converts (matching the compiled engine's trace rendering), falling
// back to the boxed form.
func pktString(pkt value.Value) string {
	if p, err := netpkt.FromValue(pkt); err == nil {
		return p.String()
	}
	return pkt.String()
}

func (ins *Instance) process(pkt value.Value, tr *telemetry.PacketTrace) (*interp.Output, int, error) {
	if pkt.Kind != value.KindPacket {
		return nil, -1, fmt.Errorf("model: Process wants a packet, got %s", pkt.Kind)
	}
	t0 := ins.tel.Start()
	out, entry, err := ins.match(pkt, tr)
	dropped := err == nil && out.Dropped
	ins.tel.Count(t0, entry, dropped, err != nil)
	return out, entry, err
}

func (ins *Instance) match(pkt value.Value, tr *telemetry.PacketTrace) (*interp.Output, int, error) {
	ev := &env{ins: ins, pkt: pkt} // one allocation per packet, not one per term
	out := &interp.Output{}
	for i := range ins.m.Entries {
		e := &ins.m.Entries[i]
		ok, err := ins.matches(i, e, ev, tr)
		if err != nil {
			return nil, -1, fmt.Errorf("model: entry %d guard: %w", i, err)
		}
		if !ok {
			continue
		}
		// Evaluate every action term against the PRE-state, then commit.
		var sent []interp.SentPacket
		for _, a := range e.Sends {
			p := pkt.Clone()
			for _, f := range a.FieldNames() {
				v, err := solver.Eval(a.Fields[f], ev)
				if err != nil {
					return nil, -1, fmt.Errorf("model: entry %d field %s: %w", i, f, err)
				}
				p.Pkt.Fields[f] = v
			}
			ifaceV, err := solver.Eval(a.Iface, ev)
			if err != nil {
				return nil, -1, fmt.Errorf("model: entry %d iface: %w", i, err)
			}
			iface := ""
			if ifaceV.Kind == value.KindStr {
				iface = ifaceV.S
			}
			sent = append(sent, interp.SentPacket{Pkt: p, Iface: iface})
		}
		type update struct {
			name string
			v    value.Value
		}
		var updates []update
		var ops []mapOp
		for _, u := range e.Updates {
			if inPlace(u) {
				ops, err = ins.stageOps(u.Name, u.Val, ev, ops)
				if err != nil {
					return nil, -1, fmt.Errorf("model: entry %d update %s: %w", i, u.Name, err)
				}
				updates = append(updates, update{u.Name, ins.state[u.Name]})
				continue
			}
			v, err := solver.Eval(u.Val, ev)
			if err != nil {
				return nil, -1, fmt.Errorf("model: entry %d update %s: %w", i, u.Name, err)
			}
			switch u.Val.(type) {
			case solver.Store, solver.Del: // solver.Eval built a fresh map
			default:
				if v.Kind == value.KindMap {
					v = v.Clone() // never alias another variable's map
				}
			}
			updates = append(updates, update{u.Name, v})
		}
		for _, op := range ops {
			m := ins.state[op.name].Map
			if op.del {
				_ = m.Delete(op.k)
			} else {
				_ = m.Set(op.k, op.v)
			}
		}
		for _, u := range updates {
			ins.state[u.name] = u.v
			if tr != nil {
				tr.Changes = append(tr.Changes, stateChange(u.name, e, u.v))
			}
		}
		out.Sent = sent
		out.Dropped = len(sent) == 0
		return out, i, nil
	}
	out.Dropped = true
	return out, -1, nil
}

// mapOp is one staged in-place map write: evaluated against the
// pre-state, applied at commit.
type mapOp struct {
	name string
	del  bool
	k, v value.Value
}

// inPlace reports whether update u is a Store/Del chain rooted at the
// variable's own pre-state map (name@0) — the shape every synthesized
// map update takes. Such chains commit in place: the instance owns its
// state maps, so the functional solver.Eval clone of the whole table
// per write is unnecessary.
func inPlace(u Assign) bool {
	t := u.Val
	for {
		switch x := t.(type) {
		case solver.Store:
			t = x.M
		case solver.Del:
			t = x.M
		case solver.MapVar:
			return x.Name == u.Name+"@0"
		default:
			return false
		}
	}
}

// stageOps evaluates a Store/Del chain's keys and values against the
// pre-state, innermost write first (solver.Eval's order, so errors
// surface identically), appending the writes to ops. Keys are encoded
// here so an unhashable key fails before anything commits.
func (ins *Instance) stageOps(name string, t solver.Term, ev *env, ops []mapOp) ([]mapOp, error) {
	var inner, k, v solver.Term
	switch x := t.(type) {
	case solver.Store:
		inner, k, v = x.M, x.K, x.V
	case solver.Del:
		inner, k = x.M, x.K
	default:
		m, ok := ins.state[name]
		if !ok {
			return ops, fmt.Errorf("solver: unbound map %q", name+"@0")
		}
		if m.Kind != value.KindMap {
			return ops, fmt.Errorf("solver: %q is %s, want map", name+"@0", m.Kind)
		}
		return ops, nil
	}
	ops, err := ins.stageOps(name, inner, ev, ops)
	if err != nil {
		return ops, err
	}
	op := mapOp{name: name, del: v == nil}
	if op.k, err = solver.Eval(k, ev); err != nil {
		return ops, err
	}
	if !op.del {
		if op.v, err = solver.Eval(v, ev); err != nil {
			return ops, err
		}
		if op.v.Kind == value.KindMap {
			op.v = op.v.Clone() // a stored map must not alias live state
		}
	}
	if _, err := op.k.Key(); err != nil {
		return ops, err
	}
	return append(ops, op), nil
}

// stateChange renders one committed update for the explain trace.
// Scalars show the concrete new value; maps show the update *term* (the
// store/del chain) — the concrete map can hold thousands of entries
// while the term shows exactly the keys this packet touched.
func stateChange(name string, e *Entry, v value.Value) telemetry.StateChange {
	if v.Kind != value.KindMap {
		return telemetry.StateChange{Var: name, Op: "assign", Val: v.String()}
	}
	for _, u := range e.Updates {
		if u.Name == name {
			return telemetry.StateChange{Var: name, Op: "assign", Val: u.Val.String()}
		}
	}
	return telemetry.StateChange{Var: name, Op: "assign", Val: fmt.Sprintf("map(%d entries)", v.Map.Len())}
}

func (ins *Instance) matches(idx int, e *Entry, ev *env, tr *telemetry.PacketTrace) (bool, error) {
	for _, c := range e.Guard() {
		ok, err := solver.EvalBool(c, ev)
		if tr != nil {
			outcome := "true"
			switch {
			case err != nil:
				outcome = "error: " + err.Error()
			case !ok:
				outcome = "false"
			}
			tr.Guards = append(tr.Guards, telemetry.GuardEval{Entry: idx, Guard: c.String(), Outcome: outcome})
		}
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
