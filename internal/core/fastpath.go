package core

import (
	"fmt"

	"nfactor/internal/dataplane"
	"nfactor/internal/interp"
	"nfactor/internal/model"
	"nfactor/internal/netpkt"
	"nfactor/internal/perf"
	"nfactor/internal/telemetry"
	"nfactor/internal/value"
)

// CompiledEngine lowers the synthesized model plus its concrete
// configuration into the zero-allocation data-plane engine. An error
// means some term shape has no data-plane lowering; callers should fall
// back to the reference Instance (model.NewInstance).
func (an *Analysis) CompiledEngine(opts Options) (*dataplane.Engine, error) {
	opts = an.inherit(opts)
	config, state, err := an.ConfigAndState(opts.ConfigOverride)
	if err != nil {
		return nil, err
	}
	eng, err := dataplane.Compile(an.Model, config, state)
	if err != nil {
		return nil, err
	}
	eng.SetPerf(opts.Perf)
	return eng, nil
}

// Instance builds the reference interpreter over the same configuration
// and initial state the compiled engine gets — the baseline the
// data-plane benchmarks compare against.
func (an *Analysis) Instance(opts Options) (*model.Instance, error) {
	opts = an.inherit(opts)
	config, state, err := an.ConfigAndState(opts.ConfigOverride)
	if err != nil {
		return nil, err
	}
	return model.NewInstance(an.Model, config, state)
}

// ShardedEngine builds the flow-partitioned concurrent engine with n
// shards. It errors when some state variable has no sharding lowering
// (see dataplane.Classify; dataplane.BlockingVar names the variable).
func (an *Analysis) ShardedEngine(n int, opts Options) (*dataplane.Sharded, error) {
	opts = an.inherit(opts)
	config, state, err := an.ConfigAndState(opts.ConfigOverride)
	if err != nil {
		return nil, err
	}
	sh, err := dataplane.NewSharded(an.Model, config, state, n)
	if err != nil {
		return nil, err
	}
	if opts.Perf != nil {
		sh.SetPerf(opts.Perf)
	}
	return sh, nil
}

// DiffTestCompiled replays trace through the reference model.Instance
// and the compiled data-plane engine in lockstep, comparing every
// packet's outcome — drop/forward, emitted packets (through the netpkt
// wire lens, the engine's output domain), interfaces, and which entry
// fired — and, at the end of the trace, the complete state trajectory's
// final point. It is the equivalence methodology backing the compiled
// engine: same trace, same outputs, same end state.
func (an *Analysis) DiffTestCompiled(trace []netpkt.Packet, opts Options) (*DiffResult, error) {
	opts = an.inherit(opts)
	config, state, err := an.ConfigAndState(opts.ConfigOverride)
	if err != nil {
		return nil, err
	}
	inst, err := model.NewInstance(an.Model, config, state)
	if err != nil {
		return nil, err
	}
	eng, err := dataplane.Compile(an.Model, config, state)
	if err != nil {
		return nil, err
	}
	eng.SetPerf(opts.Perf)

	defer opts.Perf.Phase("accuracy.diff.compiled")()
	trials := opts.Perf.Counter(perf.CDiffTrials)
	res := &DiffResult{}
	record := func(i int, p netpkt.Packet, diff string) {
		res.Mismatches++
		if res.First != nil {
			return
		}
		res.FirstDiff = fmt.Sprintf("packet %d (%s): %s", i, p, diff)
		// Reconstruct both sides' guard trails at the diverging packet
		// by replaying fresh replicas, then pinpoint the first guard
		// whose outcome differs.
		d := &Divergence{
			Packet:    i,
			Pkt:       p,
			Detail:    diff,
			Reference: an.explainModelAt(trace, i, opts),
			Candidate: an.explainEngineAt(trace, i, opts),
		}
		if d.Reference != nil && d.Candidate != nil {
			d.GuardDiff = telemetry.DiffGuards(d.Reference, d.Candidate)
		}
		res.First = d
	}
	for i := range trace {
		res.Trials++
		trials.Inc()
		rOut, rEntry, rErr := inst.ProcessTraced(trace[i].ToValue())
		eOut, eErr := eng.Process(&trace[i])
		if (rErr != nil) != (eErr != nil) {
			record(i, trace[i], fmt.Sprintf("error mismatch: instance=%v engine=%v", rErr, eErr))
			continue
		}
		if rErr != nil {
			continue // both errored
		}
		if diff := compareEngineOutput(rOut, rEntry, eOut); diff != "" {
			record(i, trace[i], diff)
		}
	}
	if diff := compareStates(inst.State(), eng.State()); diff != "" {
		res.Mismatches++
		if res.FirstDiff == "" {
			res.FirstDiff = "end state: " + diff
			res.First = &Divergence{Packet: -1, Detail: diff}
		}
	}
	eng.Flush()
	return res, nil
}

// explainEngineAt replays a fresh compiled engine over trace[:i] and
// returns the explain trace of trace[i]. Best-effort: nil when the
// replica cannot be built.
func (an *Analysis) explainEngineAt(trace []netpkt.Packet, i int, opts Options) *telemetry.PacketTrace {
	config, state, err := an.ConfigAndState(opts.ConfigOverride)
	if err != nil {
		return nil
	}
	eng, err := dataplane.Compile(an.Model, config, state)
	if err != nil {
		return nil
	}
	for j := 0; j < i; j++ {
		if _, err := eng.Process(&trace[j]); err != nil {
			break
		}
	}
	_, tr, _ := eng.ProcessExplain(&trace[i])
	return tr
}

// compareEngineOutput checks one reference output against one engine
// output. Reference packets pass through netpkt.FromValue — the
// engine's native representation — so both sides are compared in the
// wire domain.
func compareEngineOutput(r *interp.Output, rEntry int, e *dataplane.Output) string {
	if r.Dropped != e.Dropped {
		return fmt.Sprintf("drop mismatch: instance=%v engine=%v", r.Dropped, e.Dropped)
	}
	if rEntry != e.Entry {
		return fmt.Sprintf("fired entry mismatch: instance=%d engine=%d", rEntry, e.Entry)
	}
	if len(r.Sent) != len(e.Sent) {
		return fmt.Sprintf("send count mismatch: instance=%d engine=%d", len(r.Sent), len(e.Sent))
	}
	for i := range r.Sent {
		if r.Sent[i].Iface != e.Sent[i].Iface {
			return fmt.Sprintf("send %d iface mismatch: %q vs %q", i, r.Sent[i].Iface, e.Sent[i].Iface)
		}
		rp, err := netpkt.FromValue(r.Sent[i].Pkt)
		if err != nil {
			return fmt.Sprintf("send %d: reference emitted a non-packet: %v", i, err)
		}
		if rp != e.Sent[i].Pkt {
			return fmt.Sprintf("send %d packet mismatch:\n  instance: %s\n  engine:   %s",
				i, rp.Canonical(), e.Sent[i].Pkt.Canonical())
		}
	}
	return ""
}

func compareStates(r, e map[string]value.Value) string {
	if len(r) != len(e) {
		return fmt.Sprintf("state variable count mismatch: instance=%d engine=%d", len(r), len(e))
	}
	for name, rv := range r {
		ev, ok := e[name]
		if !ok {
			return fmt.Sprintf("engine state is missing %q", name)
		}
		if !value.Equal(rv, ev) {
			return fmt.Sprintf("state %q mismatch:\n  instance: %s\n  engine:   %s", name, rv, ev)
		}
	}
	return ""
}
