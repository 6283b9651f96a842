package serve

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nfactor/internal/chain"
	"nfactor/internal/dataplane"
	"nfactor/internal/model"
	"nfactor/internal/netpkt"
	"nfactor/internal/telemetry"
	"nfactor/internal/value"
)

// SwapRequest asks the server to replace the running generation with a
// freshly built candidate at the next batch barrier.
type SwapRequest struct {
	Candidate Candidate
	// AllowBehaviorChange skips the old-vs-new behavior gate — the
	// normal case for an intentional model update (a re-synthesized NF
	// with a changed config or source). The candidate-faithfulness gate
	// (candidate engine vs its own reference semantics over the live
	// window) always runs.
	AllowBehaviorChange bool
	// AfterPackets defers the swap until at least this many packets
	// have been served (0: the next barrier). Lets tests and smoke runs
	// place the swap mid-stream deterministically.
	AfterPackets int64
}

// SwapReport is the outcome of one swap request: applied (with the
// carry-over audit) or blocked (with the first divergence, down to the
// diverging guard when the trails disagree).
type SwapReport struct {
	// From and To are the generation numbers. A blocked swap has To ==
	// From: the old generation keeps serving.
	From, To uint64
	// Name labels the candidate.
	Name string
	// Blocked reports a refused swap; Reason says why, naming the
	// first divergence.
	Blocked bool
	Reason  string
	// GuardDiff pinpoints the first guard whose outcome differs
	// between the two generations' explain trails at the diverging
	// packet (behavior gate) or between the candidate and its
	// reference (faithfulness gate). Empty when the divergence is not
	// guard-attributable.
	GuardDiff string
	// DivergencePacket is the window index of the diverging packet
	// (-1: none / not packet-attributable).
	DivergencePacket int
	// WindowLen is how many recently served packets gated this swap.
	WindowLen int
	// EntriesAdded / EntriesRemoved summarize the entry-table diff
	// between the generations (by entry fingerprint, summed across
	// stages).
	EntriesAdded, EntriesRemoved int
	// Decisions is the per-variable carry-over audit (stage-prefixed
	// "name#i:var" for chains); Carried and Reset count them.
	Decisions []dataplane.CarryDecision
	Carried   int
	Reset     int
	// Prepare is how long the candidate took to prepare (normalize,
	// classify, compile) on the requester's goroutine, inside
	// RequestSwap — the old generation kept serving meanwhile.
	Prepare time.Duration
	// Pause is how long the data plane was quiesced at the barrier:
	// the two window gates, the carry decisions and state hand-off,
	// the audit and the epoch flip.
	Pause time.Duration
	// Phases times each protocol phase reached, prepare phases first
	// (see telemetry.SwapPhaseNames).
	Phases []telemetry.SwapPhase
}

// Render formats the report for humans (one paragraph, stderr-bound).
func (r *SwapReport) Render() string {
	var b strings.Builder
	if r.Blocked {
		fmt.Fprintf(&b, "swap to %q BLOCKED (generation %d keeps serving): %s\n", r.Name, r.From, r.Reason)
		if r.GuardDiff != "" {
			fmt.Fprintf(&b, "  diverging guard: %s\n", r.GuardDiff)
		}
		fmt.Fprintf(&b, "  gated over %d live packets\n", r.WindowLen)
		return b.String()
	}
	fmt.Fprintf(&b, "swapped generation %d -> %d (%q): %s barrier pause, prepared in %s off the data path\n",
		r.From, r.To, r.Name, r.Pause, r.Prepare)
	fmt.Fprintf(&b, "  phases: %s\n", telemetry.RenderSwapPhases(r.Phases))
	fmt.Fprintf(&b, "  entry table: +%d -%d; gated over %d live packets\n", r.EntriesAdded, r.EntriesRemoved, r.WindowLen)
	fmt.Fprintf(&b, "  state carry-over: %d carried, %d reset\n", r.Carried, r.Reset)
	for _, d := range r.Decisions {
		verb := "reset"
		if d.Carried {
			verb = "carried"
		}
		fmt.Fprintf(&b, "    %-7s %s: %s\n", verb, d.Var, d.Reason)
	}
	return b.String()
}

// specOf rebuilds the chain.NamedModel spec from normalized stages,
// with each stage's pristine init state.
func specOf(stages []genStage) []chain.NamedModel {
	spec := make([]chain.NamedModel, len(stages))
	for i := range stages {
		st := &stages[i]
		spec[i] = chain.NamedModel{Name: st.name, Model: st.m, Config: st.config, State: st.init}
	}
	return spec
}

// swap runs the barrier half of the swap protocol against the
// currently installed generation `old`, over `window` (the most
// recently served packets in serving order): gate the prepared
// candidate, decide carry-over, hand the state over, audit it and
// install the new generation. Everything window-independent already
// ran in prepare, off the serving goroutine. A blocked swap returns
// gen == nil and report.Blocked. The pause counts from start, when the
// barrier took the swap up.
func swap(old *Generation, t *swapTicket, window []netpkt.Packet, start time.Time) (*Generation, *SwapReport) {
	req, next := t.req, t.gen
	rep := &SwapReport{From: old.Num, To: old.Num, Name: req.Candidate.name(),
		WindowLen: len(window), DivergencePacket: -1, Prepare: t.prepare,
		Phases: append([]telemetry.SwapPhase(nil), t.phases...)}
	at := time.Now() // phases time their own work; the pause also counts any wait since start
	mark := func(phase string) {
		now := time.Now()
		rep.Phases = append(rep.Phases, telemetry.SwapPhase{Phase: phase, Barrier: true, Dur: now.Sub(at)})
		at = now
	}
	block := func(reason, guardDiff string, pkt int) (*Generation, *SwapReport) {
		rep.Blocked, rep.Reason, rep.GuardDiff, rep.DivergencePacket = true, reason, guardDiff, pkt
		rep.Pause = time.Since(start)
		return nil, rep
	}

	// Gate 1 — candidate faithfulness: the candidate's compiled engine
	// must match its own reference semantics over the live window. A
	// candidate that fails this is mis-synthesized or mis-lowered; it
	// never reaches the wire.
	if len(window) > 0 {
		if req.Candidate.Analysis != nil {
			res, err := req.Candidate.Analysis.DiffTestCompiled(window, req.Candidate.Opts)
			if err != nil {
				return block(fmt.Sprintf("faithfulness gate failed to run: %v", err), "", -1)
			}
			if res.Mismatches > 0 {
				gd, pkt := "", -1
				if res.First != nil {
					gd, pkt = res.First.GuardDiff, res.First.Packet
				}
				return block("candidate diverges from its own reference semantics: "+res.FirstDiff, gd, pkt)
			}
		} else {
			res, err := dataplane.DiffTestChain(specOf(next.stages), window)
			if err != nil {
				return block(fmt.Sprintf("faithfulness gate failed to run: %v", err), "", -1)
			}
			if res.Mismatches > 0 {
				return block("candidate chain diverges from its stage-by-stage reference: "+res.FirstDiff, "", -1)
			}
		}
	}
	mark(telemetry.PhaseGateFaithful)

	// Gate 2 — behavior equivalence: old and new generations, replayed
	// from pristine state over the live window, must produce the same
	// observable behavior (verdict, emitted packets, interfaces — entry
	// indices renumber across generations and are not compared). Skipped
	// only on an explicit AllowBehaviorChange.
	if !req.AllowBehaviorChange && len(window) > 0 {
		if reason, gd, pkt := behaviorGate(old, next, window); reason != "" {
			return block(reason, gd, pkt)
		}
	}
	mark(telemetry.PhaseGateBehavior)

	rep.EntriesAdded, rep.EntriesRemoved = entryTableDiff(old.stages, next.stages)
	audit, err := carryState(old, next, rep)
	if err != nil {
		return block(err.Error(), "", -1)
	}
	mark(telemetry.PhaseHandoff)
	if reason := audit(); reason != "" {
		return block(reason, "", -1)
	}
	mark(telemetry.PhaseAudit)

	next.install(old.Num + 1)
	rep.To = next.Num
	rep.Pause = time.Since(start)
	return next, rep
}

// carryState moves the old generation's state into the prepared
// generation next and returns the audit that proves it landed.
//
// CarryDecisions carries a variable only when its name, state class and
// value kind agree on both sides, so with an unchanged plane shape
// (engine or fused chain, shard count) every carried variable is
// lowered identically and is handed over by ownership: the new plane
// adopts the old table or slot, O(vars), and the audit is an identity
// check. A shape change re-lowers every carried variable through the
// export -> CarryOver -> build path: the plane is rebuilt from the
// carried state (NewSharded/NewShardedChain re-derive what they need
// from it — that is what gives shard s a carried allocator position of
// carried+s*step), and the audit deep-compares each carried value.
func carryState(old, next *Generation, rep *SwapReport) (audit func() string, err error) {
	audit = func() string { return "" }
	stages := next.stages
	if len(stages) != len(old.stages) {
		for i := range stages {
			for _, n := range sortedVarNames(stages[i].init) {
				rep.Decisions = append(rep.Decisions, dataplane.CarryDecision{
					Var: stageVar(stages, i, n), Reason: fmt.Sprintf("chain shape changed (%d -> %d stages)", len(old.stages), len(stages))})
			}
		}
		countDecisions(rep)
		return audit, nil
	}
	// decide records stage i's decisions (or resets it whole when the
	// stage runs a different NF) and returns the raw decisions.
	decide := func(i int, decs []dataplane.CarryDecision) []dataplane.CarryDecision {
		if stages[i].name != old.stages[i].name {
			for _, n := range sortedVarNames(stages[i].init) {
				rep.Decisions = append(rep.Decisions, dataplane.CarryDecision{
					Var: stageVar(stages, i, n), Reason: fmt.Sprintf("stage NF changed (%s -> %s)", old.stages[i].name, stages[i].name)})
			}
			return nil
		}
		for _, d := range decs {
			d.Var = stageVar(stages, i, d.Var)
			rep.Decisions = append(rep.Decisions, d)
		}
		return decs
	}

	if from, to := old.plane.shape(), next.plane.shape(); from != to {
		live := old.plane.stageStates()
		carry := make([]map[string]value.Value, len(stages))
		for i := range stages {
			st, decs := dataplane.CarryOver(old.stages[i].cls, stages[i].cls, live[i], stages[i].init)
			for j := range decs {
				if decs[j].Carried {
					decs[j].Reason += fmt.Sprintf("; re-lowered (%s -> %s)", from, to)
				}
			}
			if decide(i, decs) != nil {
				carry[i] = st
			}
		}
		countDecisions(rep)
		build := make([]map[string]value.Value, len(stages))
		for i := range stages {
			build[i] = stages[i].init
			if carry[i] != nil {
				build[i] = carry[i]
			}
		}
		if next.plane, err = buildPlane(next, build); err != nil {
			return nil, fmt.Errorf("candidate failed to build: %v", err)
		}
		return func() string {
			got := next.plane.stageStates()
			for i := range stages {
				for name, want := range carry[i] {
					if have, ok := got[i][name]; !ok || !value.Equal(want, have) {
						return fmt.Sprintf("carry verification failed: %s did not survive the rebuild (want %s, plane has %s)",
							stageVar(stages, i, name), want, got[i][name])
					}
				}
			}
			return ""
		}, nil
	}

	type handed struct {
		stage int
		name  string
	}
	var moved []handed
	for i := range stages {
		decs := dataplane.CarryDecisions(old.stages[i].cls, stages[i].cls, old.plane.stageKinds(i), stages[i].init)
		for j := range decs {
			if decs[j].Carried {
				decs[j].Reason += "; handed over"
			}
		}
		for _, d := range decide(i, decs) {
			if !d.Carried {
				continue // the prepared plane already holds the new init
			}
			if err := next.plane.handOver(old.plane, i, d.Var); err != nil {
				return nil, fmt.Errorf("state hand-off failed: %s: %v", stageVar(stages, i, d.Var), err)
			}
			moved = append(moved, handed{i, d.Var})
		}
	}
	countDecisions(rep)
	return func() string {
		for _, h := range moved {
			if !next.plane.holds(old.plane, h.stage, h.name) {
				return fmt.Sprintf("carry audit failed: the new plane does not hold %s's table", stageVar(stages, h.stage, h.name))
			}
		}
		return ""
	}, nil
}

// countDecisions totals the report's carry decisions.
func countDecisions(rep *SwapReport) {
	for _, d := range rep.Decisions {
		if d.Carried {
			rep.Carried++
		} else {
			rep.Reset++
		}
	}
}

// behaviorGate resets both generations' prepared replicas to pristine
// state and replays them over the window in lockstep. On the first
// observable difference it builds fresh replicas, replays the prefix,
// explains the diverging packet on each side and names the first guard
// whose outcome differs. Returns "" when the window agrees.
func behaviorGate(old, next *Generation, window []netpkt.Packet) (reason, guardDiff string, pkt int) {
	oldRep, newRep := old.replica, next.replica
	oldRep.reset()
	newRep.reset()
	for i := range window {
		ov, oerr := oldRep.process(&window[i])
		nv, nerr := newRep.process(&window[i])
		if (oerr != nil) != (nerr != nil) {
			return fmt.Sprintf("packet %d (%s): error mismatch: old=%v new=%v", i, &window[i], oerr, nerr), "", i
		}
		if oerr != nil {
			continue // both errored identically observable
		}
		if diff := compareVerdicts(ov, nv); diff != "" {
			gd := explainDivergence(old, next.stages, window, i)
			return fmt.Sprintf("packet %d (%s): generations diverge: %s", i, &window[i], diff), gd, i
		}
	}
	return "", "", -1
}

// explainDivergence replays fresh replicas of both generations over
// window[:i] and diffs the guard trails of window[i], labeling each
// side with its generation number. Best-effort: "" when a replica
// cannot be rebuilt.
func explainDivergence(old *Generation, next []genStage, window []netpkt.Packet, i int) string {
	trailOf := func(stages []genStage, label string) *telemetry.PacketTrace {
		rep, err := newReplica(stages)
		if err != nil {
			return nil
		}
		for j := 0; j < i; j++ {
			if _, err := rep.process(&window[j]); err != nil {
				return nil
			}
		}
		tr, _ := rep.explain(&window[i])
		if tr != nil {
			tr.Backend = label
		}
		return tr
	}
	a := trailOf(old.stages, fmt.Sprintf("gen%d", old.Num))
	b := trailOf(next, fmt.Sprintf("gen%d", old.Num+1))
	if a == nil || b == nil {
		return ""
	}
	return telemetry.DiffGuards(a, b)
}

// compareVerdicts checks observable behavior only: drop/forward, the
// emitted packets and their interfaces. Entry indices are generation-
// local and excluded.
func compareVerdicts(a, b netpkt.Verdict) string {
	if a.Dropped != b.Dropped {
		return fmt.Sprintf("verdict mismatch: old=%v new=%v", a, b)
	}
	if len(a.Sent) != len(b.Sent) {
		return fmt.Sprintf("send count mismatch: old=%d new=%d", len(a.Sent), len(b.Sent))
	}
	for i := range a.Sent {
		if a.Ifaces[i] != b.Ifaces[i] {
			return fmt.Sprintf("send %d iface mismatch: old=%q new=%q", i, a.Ifaces[i], b.Ifaces[i])
		}
		if a.Sent[i] != b.Sent[i] {
			return fmt.Sprintf("send %d packet mismatch:\n  old: %s\n  new: %s", i, a.Sent[i].Canonical(), b.Sent[i].Canonical())
		}
	}
	return ""
}

// replica is a fresh sequential twin of a generation, replayed from
// pristine state during gating.
type replica interface {
	process(p *netpkt.Packet) (netpkt.Verdict, error)
	explain(p *netpkt.Packet) (*telemetry.PacketTrace, error)
	reset() // back to pristine state
}

// newReplica compiles a sequential replica from pristine state: an
// Engine for a single NF, a fused ChainEngine for a chain (faithful to
// the stage-by-stage reference by gate 1's own check).
func newReplica(stages []genStage) (replica, error) {
	if len(stages) == 1 {
		eng, err := dataplane.Compile(stages[0].m, stages[0].config, stages[0].init)
		if err != nil {
			return nil, err
		}
		return &engineReplica{eng: eng}, nil
	}
	eng, err := dataplane.CompileChain(specOf(stages))
	if err != nil {
		return nil, err
	}
	return &chainReplica{eng: eng}, nil
}

type engineReplica struct{ eng *dataplane.Engine }

func (r *engineReplica) process(p *netpkt.Packet) (netpkt.Verdict, error) {
	o, err := r.eng.Process(p)
	if err != nil {
		return netpkt.Verdict{}, err
	}
	return verdictOfOutput(o), nil
}

func (r *engineReplica) reset() { r.eng.Reset() }

func (r *engineReplica) explain(p *netpkt.Packet) (*telemetry.PacketTrace, error) {
	_, tr, err := r.eng.ProcessExplain(p)
	return tr, err
}

type chainReplica struct{ eng *dataplane.ChainEngine }

func (r *chainReplica) process(p *netpkt.Packet) (netpkt.Verdict, error) {
	o, err := r.eng.Process(p)
	if err != nil {
		return netpkt.Verdict{}, err
	}
	return verdictOfChainOutput(o), nil
}

func (r *chainReplica) reset() { r.eng.Reset() }

func (r *chainReplica) explain(p *netpkt.Packet) (*telemetry.PacketTrace, error) {
	_, tr, err := r.eng.ProcessExplain(p)
	return tr, err
}

// entryTableDiff counts, per stage index, the entries present in one
// generation's table and not the other (by structural fingerprint),
// summed across stages. Stages beyond the shorter chain count whole.
func entryTableDiff(old, next []genStage) (added, removed int) {
	n := len(old)
	if len(next) > n {
		n = len(next)
	}
	for i := 0; i < n; i++ {
		var of, nf map[string]int
		if i < len(old) {
			of = old[i].fps
		}
		if i < len(next) {
			nf = next[i].fps
		}
		for fp, c := range nf {
			if d := c - of[fp]; d > 0 {
				added += d
			}
		}
		for fp, c := range of {
			if d := c - nf[fp]; d > 0 {
				removed += d
			}
		}
	}
	return added, removed
}

func entryFingerprints(m *model.Model) map[string]int {
	out := make(map[string]int, len(m.Entries))
	for i := range m.Entries {
		e := &m.Entries[i]
		out[fmt.Sprintf("%v|%v|%v|%v|%v", e.Config, e.FlowMatch, e.StateMatch, e.Sends, e.Updates)]++
	}
	return out
}

// stageVar namespaces a variable name for reports: bare for a single
// NF, "name#i:var" for chains (the hop-namespace convention).
func stageVar(stages []genStage, i int, name string) string {
	if len(stages) == 1 {
		return name
	}
	return fmt.Sprintf("%s#%d:%s", stages[i].name, i, name)
}

func sortedVarNames(m map[string]value.Value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
