package serve

import (
	"fmt"
	"strings"
	"time"

	"nfactor/internal/chain"
	"nfactor/internal/core"
	"nfactor/internal/dataplane"
	"nfactor/internal/model"
	"nfactor/internal/netpkt"
	"nfactor/internal/telemetry"
	"nfactor/internal/value"
)

// Candidate describes one engine generation to build and serve: a
// synthesized single NF (Analysis) or a service chain (Stages), at a
// shard count. The same Candidate type feeds both the initial
// generation and every hot-swap request.
type Candidate struct {
	// Analysis is the synthesized single NF. Exactly one of Analysis
	// and Stages must be set.
	Analysis *core.Analysis
	// Opts are the analysis options the generation inherits (config
	// override, perf set). Only meaningful with Analysis.
	Opts core.Options
	// Stages is the service chain, each stage with its concrete config
	// and pristine initial state (core.Analysis.Named fills them).
	Stages []chain.NamedModel
	// Shards > 1 builds the flow-partitioned engine (Sharded /
	// ShardedChain); otherwise the sequential one.
	Shards int
	// Name labels the generation in reports; defaults to the NF or
	// chain name.
	Name string
}

// name derives the display label.
func (c *Candidate) name() string {
	if c.Name != "" {
		return c.Name
	}
	if c.Analysis != nil {
		return c.Analysis.NFName
	}
	names := make([]string, len(c.Stages))
	for i := range c.Stages {
		names[i] = c.Stages[i].Name
	}
	return strings.Join(names, "->")
}

// Outcome is one served packet's result: the verdict plus the serving
// provenance — which entry fired (deepest stage for chains) and which
// engine generation processed it. The epoch stamp is the per-packet
// consistency witness: during a correct swap the stream of epochs is
// non-decreasing with exactly one transition, and uniform within every
// batch.
type Outcome struct {
	Verdict netpkt.Verdict
	Entry   int
	Epoch   uint64
	// DefaultStage is the stage whose implicit lowest-priority drop
	// killed the packet (0 for a single NF), -1 when an explicit entry
	// decided it — the gap-hit detector's trigger.
	DefaultStage int
}

// genStage is the pristine description of one stage of a generation:
// the synthesized model, its concrete configuration, its own
// synthesized initial state, and the state classification computed
// against that PRISTINE init. Carry-over matching must compare what the
// models declare (allocator seed/stride, state classes), not how far a
// live instance has advanced — classifying against live state would
// make a second swap see the allocator's current position as its
// "init" and wrongly reset it.
type genStage struct {
	name   string
	m      *model.Model
	config map[string]value.Value
	init   map[string]value.Value
	cls    *dataplane.Classification // nil: no sharding lowering; carry falls back to name+kind
	fps    map[string]int            // entry fingerprints, for the swap report's table diff
}

// Generation is one built engine generation serving traffic.
type Generation struct {
	// Num is the generation number: the epoch every Output it produces
	// is stamped with.
	Num  uint64
	Name string

	cand   Candidate
	stages []genStage
	plane  plane
	// replica is a sequential twin compiled from pristine init: the
	// behavior gate replays it (after a reset) whenever this
	// generation is one side of a swap.
	replica replica
}

// prepare runs every window-independent step of building a generation
// — normalize, classify, and compile both the serving plane and the
// gate replica from pristine init — and times each phase. It touches
// no live state, so RequestSwap runs it on the requester's goroutine
// while the serving loop keeps going; the barrier then only gates,
// hands state over and flips the epoch. The generation number is
// assigned at install.
func prepare(c Candidate) (*Generation, []telemetry.SwapPhase, error) {
	var phases []telemetry.SwapPhase
	at := time.Now()
	mark := func(phase string) {
		now := time.Now()
		phases = append(phases, telemetry.SwapPhase{Phase: phase, Dur: now.Sub(at)})
		at = now
	}
	stages, err := normalize(c)
	mark(telemetry.PhaseNormalize)
	if err != nil {
		return nil, phases, err
	}
	for i := range stages {
		st := &stages[i]
		st.cls, _ = dataplane.Classify(st.m, st.config, st.init) // nil on no-lowering: carry degrades gracefully
	}
	mark(telemetry.PhaseClassify)
	g := &Generation{Name: c.name(), cand: c, stages: stages}
	pristine := make([]map[string]value.Value, len(stages))
	for i := range stages {
		pristine[i] = stages[i].init
	}
	if g.plane, err = buildPlane(g, pristine); err == nil {
		g.replica, err = newReplica(stages)
	}
	mark(telemetry.PhaseCompile)
	if err != nil {
		return nil, phases, fmt.Errorf("candidate failed to build: %v", err)
	}
	return g, phases, nil
}

// install numbers a prepared generation and stamps its plane.
func (g *Generation) install(num uint64) {
	g.Num = num
	g.plane.setEpoch(num)
}

// normalize turns a candidate into its pristine stage descriptions:
// model, concrete config, synthesized init state and entry
// fingerprints. prepare classifies them against that pristine init.
func normalize(c Candidate) ([]genStage, error) {
	var stages []genStage
	switch {
	case c.Analysis != nil && len(c.Stages) > 0:
		return nil, fmt.Errorf("serve: candidate has both a single NF and a chain")
	case c.Analysis != nil:
		config, state, err := c.Analysis.ConfigAndState(c.Opts.ConfigOverride)
		if err != nil {
			return nil, err
		}
		stages = []genStage{{name: c.Analysis.NFName, m: c.Analysis.Model, config: config, init: state}}
	case len(c.Stages) > 0:
		for i := range c.Stages {
			nm := &c.Stages[i]
			if nm.Model == nil || nm.Config == nil || nm.State == nil {
				return nil, fmt.Errorf("serve: chain stage %d (%s): missing model/config/state (use core.Analysis.Named)", i, nm.Name)
			}
			stages = append(stages, genStage{name: nm.Name, m: nm.Model, config: nm.Config, init: nm.State})
		}
	default:
		return nil, fmt.Errorf("serve: empty candidate")
	}
	for i := range stages {
		stages[i].fps = entryFingerprints(stages[i].m)
	}
	return stages, nil
}

// buildPlane compiles the stages into the right engine shape.
func buildPlane(g *Generation, state []map[string]value.Value) (plane, error) {
	if g.cand.Analysis != nil {
		st := &g.stages[0]
		if g.cand.Shards > 1 {
			sh, err := dataplane.NewSharded(st.m, st.config, state[0], g.cand.Shards)
			if err != nil {
				return nil, err
			}
			return &enginePlane{eng: sh}, nil
		}
		eng, err := dataplane.Compile(st.m, st.config, state[0])
		if err != nil {
			return nil, err
		}
		return &enginePlane{eng: eng}, nil
	}
	spec := make([]chain.NamedModel, len(g.stages))
	for i := range g.stages {
		st := &g.stages[i]
		spec[i] = chain.NamedModel{Name: st.name, Model: st.m, Config: st.config, State: state[i]}
	}
	if g.cand.Shards > 1 {
		sh, err := dataplane.NewShardedChain(spec, g.cand.Shards)
		if err != nil {
			return nil, err
		}
		return &chainPlane{eng: sh, stages: len(spec)}, nil
	}
	eng, err := dataplane.CompileChain(spec)
	if err != nil {
		return nil, err
	}
	return &chainPlane{eng: eng, stages: len(spec)}, nil
}

// --- plane adapters ---------------------------------------------------

// plane is what the serving loop needs from any engine shape: batch
// processing into Outcomes, epoch stamping at the barrier, per-stage
// state export for carry-over, and a telemetry snapshot.
type plane interface {
	processBatch(pkts []netpkt.Packet, outs []Outcome) error
	setEpoch(v uint64)
	// stageStates exports the live state per stage (len 1 for a single
	// NF), merged across shards. A full deep copy, O(table): only a
	// swap that re-lowers its state (a plane shape change) exports it.
	// Call only between batches.
	stageStates() []map[string]value.Value
	// stageViews exports a bounded per-stage view for the /state
	// inspector: true sizes, at most max sampled entries per table.
	// O(vars + max), safe to run at every barrier. Call only between
	// batches.
	stageViews(max int) []dataplane.StateView
	snapshot() telemetry.Snapshot
	// stageSnapshots exports per-stage telemetry (len 1 for a single
	// NF, where it equals snapshot()) — the /coverage granularity.
	stageSnapshots() []telemetry.Snapshot
	// shape names the engine shape: fused chain or not, and the shard
	// count. Two planes of one shape lower every variable of a given
	// name, class and value kind identically.
	shape() planeShape
	// stageKinds reports stage i's live value kinds, O(vars).
	stageKinds(i int) map[string]value.Kind
	// handOver makes stage i adopt from's variable name by ownership;
	// holds audits it. Both need from to have the same shape.
	handOver(from plane, i int, name string) error
	holds(from plane, i int, name string) bool
}

// planeShape is what a variable's lowering depends on beyond its own
// name, class and kind.
type planeShape struct {
	chain  bool
	shards int
}

func (s planeShape) String() string {
	kind := "engine"
	if s.chain {
		kind = "fused chain"
	}
	return fmt.Sprintf("%s, %d shard(s)", kind, s.shards)
}

// engineLike is the single-NF engine surface (Engine and Sharded).
type engineLike interface {
	ProcessBatch(pkts []netpkt.Packet, outs []dataplane.Output) error
	SetEpoch(v uint64)
	State() map[string]value.Value
	StateView(max int) dataplane.StateView
	StateKinds() map[string]value.Kind
	Telemetry() telemetry.Snapshot
}

type enginePlane struct {
	eng  engineLike
	outs []dataplane.Output
}

func (ep *enginePlane) processBatch(pkts []netpkt.Packet, outs []Outcome) error {
	if cap(ep.outs) < len(pkts) {
		ep.outs = make([]dataplane.Output, len(pkts))
	}
	ep.outs = ep.outs[:len(pkts)]
	if err := ep.eng.ProcessBatch(pkts, ep.outs); err != nil {
		return err
	}
	for i := range pkts {
		o := &ep.outs[i]
		ds := -1
		if o.Dropped && o.Entry < 0 {
			ds = 0 // implicit default: no entry matched
		}
		outs[i] = Outcome{Verdict: verdictOfOutput(o), Entry: o.Entry, Epoch: o.Epoch, DefaultStage: ds}
	}
	return nil
}

func (ep *enginePlane) setEpoch(v uint64) { ep.eng.SetEpoch(v) }

func (ep *enginePlane) stageStates() []map[string]value.Value {
	return []map[string]value.Value{ep.eng.State()}
}

func (ep *enginePlane) stageViews(max int) []dataplane.StateView {
	return []dataplane.StateView{ep.eng.StateView(max)}
}

func (ep *enginePlane) snapshot() telemetry.Snapshot { return ep.eng.Telemetry() }

func (ep *enginePlane) shape() planeShape {
	if sh, ok := ep.eng.(*dataplane.Sharded); ok {
		return planeShape{shards: sh.NumShards()}
	}
	return planeShape{shards: 1}
}

func (ep *enginePlane) stageKinds(int) map[string]value.Kind { return ep.eng.StateKinds() }

func (ep *enginePlane) handOver(from plane, _ int, name string) error {
	if e, ok := ep.eng.(*dataplane.Engine); ok {
		return e.HandOver(from.(*enginePlane).eng.(*dataplane.Engine), name)
	}
	return ep.eng.(*dataplane.Sharded).HandOver(from.(*enginePlane).eng.(*dataplane.Sharded), name)
}

func (ep *enginePlane) holds(from plane, _ int, name string) bool {
	if e, ok := ep.eng.(*dataplane.Engine); ok {
		return e.Holds(from.(*enginePlane).eng.(*dataplane.Engine), name)
	}
	return ep.eng.(*dataplane.Sharded).Holds(from.(*enginePlane).eng.(*dataplane.Sharded), name)
}

func (ep *enginePlane) stageSnapshots() []telemetry.Snapshot {
	return []telemetry.Snapshot{ep.eng.Telemetry()}
}

// verdictOfOutput deep-copies an engine-owned Output into a Verdict
// (the engine reuses the Output's backing arrays across batches).
func verdictOfOutput(o *dataplane.Output) netpkt.Verdict {
	v := netpkt.Verdict{Dropped: o.Dropped}
	for _, s := range o.Sent {
		v.Sent = append(v.Sent, s.Pkt)
		v.Ifaces = append(v.Ifaces, s.Iface)
	}
	return v
}

// chainLike is the fused-chain surface (ChainEngine and ShardedChain).
type chainLike interface {
	ProcessBatch(pkts []netpkt.Packet, outs []dataplane.ChainOutput) error
	SetEpoch(v uint64)
	StageState(i int) map[string]value.Value
	StageStateView(i, max int) dataplane.StateView
	StageTelemetry(i int) telemetry.Snapshot
	StageStateKinds(i int) map[string]value.Kind
	ChainTelemetry() telemetry.Snapshot
}

type chainPlane struct {
	eng    chainLike
	stages int
	outs   []dataplane.ChainOutput
}

func (cp *chainPlane) processBatch(pkts []netpkt.Packet, outs []Outcome) error {
	if cap(cp.outs) < len(pkts) {
		cp.outs = make([]dataplane.ChainOutput, len(pkts))
	}
	cp.outs = cp.outs[:len(pkts)]
	if err := cp.eng.ProcessBatch(pkts, cp.outs); err != nil {
		return err
	}
	for i := range pkts {
		o := &cp.outs[i]
		entry, ds := chainEntry(o)
		outs[i] = Outcome{Verdict: verdictOfChainOutput(o), Entry: entry, Epoch: o.Epoch, DefaultStage: ds}
	}
	return nil
}

func (cp *chainPlane) setEpoch(v uint64) { cp.eng.SetEpoch(v) }

func (cp *chainPlane) stageStates() []map[string]value.Value {
	out := make([]map[string]value.Value, cp.stages)
	for i := range out {
		out[i] = cp.eng.StageState(i)
	}
	return out
}

func (cp *chainPlane) stageViews(max int) []dataplane.StateView {
	out := make([]dataplane.StateView, cp.stages)
	for i := range out {
		out[i] = cp.eng.StageStateView(i, max)
	}
	return out
}

func (cp *chainPlane) snapshot() telemetry.Snapshot { return cp.eng.ChainTelemetry() }

func (cp *chainPlane) shape() planeShape {
	if sh, ok := cp.eng.(*dataplane.ShardedChain); ok {
		return planeShape{chain: true, shards: sh.NumShards()}
	}
	return planeShape{chain: true, shards: 1}
}

func (cp *chainPlane) stageKinds(i int) map[string]value.Kind { return cp.eng.StageStateKinds(i) }

func (cp *chainPlane) handOver(from plane, i int, name string) error {
	if e, ok := cp.eng.(*dataplane.ChainEngine); ok {
		return e.HandOverStage(from.(*chainPlane).eng.(*dataplane.ChainEngine), i, name)
	}
	return cp.eng.(*dataplane.ShardedChain).HandOverStage(from.(*chainPlane).eng.(*dataplane.ShardedChain), i, name)
}

func (cp *chainPlane) holds(from plane, i int, name string) bool {
	if e, ok := cp.eng.(*dataplane.ChainEngine); ok {
		return e.HoldsStage(from.(*chainPlane).eng.(*dataplane.ChainEngine), i, name)
	}
	return cp.eng.(*dataplane.ShardedChain).HoldsStage(from.(*chainPlane).eng.(*dataplane.ShardedChain), i, name)
}

func (cp *chainPlane) stageSnapshots() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, cp.stages)
	for i := range out {
		out[i] = cp.eng.StageTelemetry(i)
	}
	return out
}

// verdictOfChainOutput deep-copies an engine-owned ChainOutput.
func verdictOfChainOutput(o *dataplane.ChainOutput) netpkt.Verdict {
	v := netpkt.Verdict{Dropped: o.Dropped}
	for _, s := range o.Sent {
		v.Sent = append(v.Sent, s.Pkt)
		v.Ifaces = append(v.Ifaces, s.Iface)
	}
	return v
}

// chainEntry reports the entry fired at the deepest stage the packet
// reached (the chain analogue of Output.Entry) and, when that stage's
// implicit default dropped it, the stage index (-1 otherwise).
func chainEntry(o *dataplane.ChainOutput) (entry, defaultStage int) {
	for i := len(o.Entries) - 1; i >= 0; i-- {
		if o.Entries[i] != dataplane.EntryNotReached {
			if o.Entries[i] < 0 && o.Dropped {
				return o.Entries[i], i
			}
			return o.Entries[i], -1
		}
	}
	return -1, -1
}
