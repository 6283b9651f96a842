package dataplane

import (
	"fmt"
	"sync"

	"nfactor/internal/model"
	"nfactor/internal/netpkt"
	"nfactor/internal/perf"
	"nfactor/internal/solver"
	"nfactor/internal/telemetry"
	"nfactor/internal/value"
)

// Generalized flow-partitioned concurrency. Classify (classify.go)
// assigns every OIS variable a sharding lowering; NewSharded then builds
// one single-threaded Engine per shard over a per-shard *specialized*
// model:
//
//   - Flow maps stay shard-local. The shard function hashes the *sorted
//     values* of each packet's demanded key fields, so a flow and its
//     reverse land on the same shard no matter which field names an
//     entry reads them through.
//   - Replica maps and frozen scalars are copied into every shard.
//   - Allocators are specialized: shard s of n starts at init + s*step
//     and bumps by n*step, so the shards allocate from disjoint
//     interleaved ranges whose union is exactly the sequential
//     allocator's output sequence — no locks, no reconciliation, and
//     the allocated value itself encodes its owner shard:
//     owner(v) = ((v - init) / step) mod n.
//   - Owned maps (keyed by allocator values) stay shard-local too:
//     writes key by the shard's own allocator, and reads — return
//     traffic keyed by an allocated port — route to owner(field).
//     Retired entries (pre-populated keys before the allocator's seed,
//     e.g. state carried over a generation swap) are frozen: they
//     replicate to every shard and answer reads wherever they route.
//
// The router decides each packet's shard from the entries' *stateless*
// guards alone, before any state is touched: the first statelessly
// satisfied entry with a routing demand names the shard. Classify's
// coherence check proves this sound per model — any two entries that
// could both be stateless-satisfied by one packet agree on the demand —
// and marks the (corpus-absent) exceptions ambiguous; ambiguous packets
// act as batch barriers and execute serially through the hand-off path,
// probing each entry on the shard that owns its state.
//
// Equivalence with the sequential Engine is exact for purely
// flow-partitioned models, and exact modulo allocator-value renaming and
// rotor choice otherwise (see equiv.go and core.DiffTestSharded); the
// merged end state in State() reconstructs the sequential scalar values
// exactly from the per-shard positions.

// demandProg is a compiled routing demand.
type demandProg struct {
	kind     demandKind
	fields   []string                      // demandFlow: sorted key-field names
	getters  []func(*netpkt.Packet) scalar // demandFlow: key-field readers
	ownerGet func(*netpkt.Packet) scalar   // demandOwner: allocator-valued field
	owner    string                        // demandOwner: field name
	alloc    string                        // demandOwner: the allocator decoded
	init     int64
	step     int64
}

// routeStep is one router decision: an entry's compiled stateless guards
// plus its demand.
type routeStep struct {
	preds []cexpr
	d     demandProg
	amb   bool
}

// router routes packets to shards by evaluating stateless guards in
// priority order.
type router struct {
	n       int
	uniform *demandProg // every demanding entry agrees: skip the guard scan
	steps   []routeStep
	dfl     demandProg // full-tuple hash for packets no demanding entry claims
	ctx     ctx
}

// Sharded runs one specialized Engine per shard. ProcessBatch fans each
// batch out across the shards and is the only concurrent entry point;
// Process routes sequentially (useful for equivalence checks).
type Sharded struct {
	cls     *Classification
	engines []*Engine
	route   router
	// planProgs[i] is the demand program of cls.plans[i], for the
	// hand-off path.
	planProgs []demandProg

	// per-batch scratch, reused
	shardOf  []int32
	idxs     [][]int
	errs     []shardErr
	out      Output
	perf     *perf.Set
	handoffs int64
}

type shardErr struct {
	at  int
	err error
}

// NewSharded classifies the model's state and compiles n shard engines
// (n <= 1 is pinned to 1), each over the shard's specialized model. An
// error means some state variable has no sharding lowering
// (BlockingVar names it); the model still runs on a single Engine.
func NewSharded(m *model.Model, config, initState map[string]value.Value, n int) (*Sharded, error) {
	cls, err := Classify(m, config, initState)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	s := &Sharded{cls: cls}
	for i := 0; i < n; i++ {
		ms, st := specialize(m, cls, i, n, initState)
		e, err := Compile(ms, config, st)
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, e)
	}
	if err := s.buildRouter(m, config, n); err != nil {
		return nil, err
	}
	s.idxs = make([][]int, n)
	s.errs = make([]shardErr, n)
	return s, nil
}

// specialize rewrites the model and initial state for shard s of n:
// every allocator starts at init + s*step and bumps by n*step. With no
// allocators (or a single shard) the model is shared untouched.
func specialize(m *model.Model, cls *Classification, s, n int, initState map[string]value.Value) (*model.Model, map[string]value.Value) {
	hasAlloc := false
	for _, vc := range cls.Vars {
		if vc.Class == ClassAllocator {
			hasAlloc = true
			break
		}
	}
	if !hasAlloc || n == 1 {
		return m, initState
	}
	ms := *m
	ms.Entries = append([]model.Entry{}, m.Entries...)
	for i := range ms.Entries {
		e := &ms.Entries[i]
		var ups []model.Assign
		changed := false
		for _, u := range e.Updates {
			if vc := cls.Vars[u.Name]; vc != nil && vc.Class == ClassAllocator {
				u.Val = solver.Bin{
					Op: "+",
					X:  solver.Var{Name: u.Name + "@0"},
					Y:  solver.Const{V: value.Int(vc.Step * int64(n))},
				}
				changed = true
			}
			ups = append(ups, u)
		}
		if changed {
			e.Updates = ups
		}
	}
	st := make(map[string]value.Value, len(initState))
	for k, v := range initState {
		st[k] = v
	}
	for name, vc := range cls.Vars {
		if vc.Class == ClassAllocator {
			st[name] = value.Int(vc.Init + int64(s)*vc.Step)
		}
	}
	return &ms, st
}

// buildRouter compiles the stateless guard programs and demand programs.
func (s *Sharded) buildRouter(m *model.Model, config map[string]value.Value, n int) error {
	r := &s.route
	r.n = n
	cp := &compiler{config: config, slotIdx: map[string]int{}, mapIdx: map[string]int{}, lutIdx: map[string]int{}}

	var err error
	r.dfl, err = s.flowProg([]string{netpkt.FieldSrcIP, netpkt.FieldDstIP, netpkt.FieldSrcPort, netpkt.FieldDstPort})
	if err != nil {
		return err
	}

	s.planProgs = make([]demandProg, len(s.cls.plans))
	for i := range s.cls.plans {
		pl := &s.cls.plans[i]
		s.planProgs[i], err = s.demandProgOf(pl.d)
		if err != nil {
			return err
		}
		if pl.d.kind == demandNone && !pl.ambiguous {
			continue
		}
		st := routeStep{d: s.planProgs[i], amb: pl.ambiguous}
		for _, g := range m.Entries[pl.idx].FlowMatch {
			ex, err := cp.compile(g)
			if err != nil {
				return err
			}
			if ex.isConst() {
				continue // const-true under this config (false would have pruned)
			}
			st.preds = append(st.preds, ex)
		}
		r.steps = append(r.steps, st)
	}

	// Uniform fast path: every demanding entry routes identically, so
	// the guard scan is unnecessary — the original single-hash behavior
	// for purely flow-keyed models.
	uniform := true
	for i := 1; i < len(r.steps); i++ {
		if r.steps[i].amb || r.steps[0].amb || !sameProg(&r.steps[i].d, &r.steps[0].d) {
			uniform = false
			break
		}
	}
	if uniform {
		if len(r.steps) == 0 {
			r.uniform = &r.dfl
		} else {
			r.uniform = &r.steps[0].d
		}
	}

	r.ctx.tups = make([][maxTuple]scalar, len(cp.constTups), len(cp.constTups)+16)
	copy(r.ctx.tups, cp.constTups)
	r.ctx.nconst = len(cp.constTups)
	r.ctx.luts = make([]lut, len(cp.lutIdx))
	return nil
}

func sameProg(a, b *demandProg) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case demandOwner:
		return a.owner == b.owner && a.init == b.init && a.step == b.step
	case demandFlow:
		if len(a.fields) != len(b.fields) {
			return false
		}
		for i := range a.fields {
			if a.fields[i] != b.fields[i] {
				return false
			}
		}
	}
	return true
}

func (s *Sharded) flowProg(fields []string) (demandProg, error) {
	d := demandProg{kind: demandFlow, fields: fields}
	if len(fields) > 8 {
		return d, fmt.Errorf("dataplane: %d partition fields exceed the shard hash width", len(fields))
	}
	for _, f := range fields {
		g, ok := rawGetter(f)
		if !ok {
			return d, fmt.Errorf("dataplane: unknown partition field %q", f)
		}
		d.getters = append(d.getters, g)
	}
	return d, nil
}

func (s *Sharded) demandProgOf(d demand) (demandProg, error) {
	switch d.kind {
	case demandFlow:
		return s.flowProg(d.fields)
	case demandOwner:
		g, ok := rawGetter(d.owner)
		if !ok {
			return demandProg{}, fmt.Errorf("dataplane: unknown owner field %q", d.owner)
		}
		vc := s.cls.Vars[d.alloc]
		return demandProg{kind: demandOwner, ownerGet: g, owner: d.owner, alloc: d.alloc, init: vc.Init, step: vc.Step}, nil
	}
	return demandProg{kind: demandNone}, nil
}

// route returns the packet's shard, or ambiguous=true when the shard
// cannot be decided statelessly (hand-off path).
func (r *router) route(p *netpkt.Packet) (int, bool) {
	if r.uniform != nil {
		return r.evalDemand(r.uniform, p), false
	}
	c := &r.ctx
	c.pkt = p
	c.err = nil
	c.tups = c.tups[:c.nconst]
	for i := range c.luts {
		c.luts[i].valid = false
	}
	for i := range r.steps {
		st := &r.steps[i]
		sat := true
		for j := range st.preds {
			v := st.preds[j].eval(c)
			if c.err != nil || v.k != kBool {
				// A stateless guard that errors at runtime errors
				// identically on every shard; route by the default hash
				// and let the owning engine surface it.
				c.err = nil
				sat = false
				break
			}
			if v.i == 0 {
				sat = false
				break
			}
		}
		if sat {
			if st.amb {
				return 0, true
			}
			return r.evalDemand(&st.d, p), false
		}
	}
	return r.evalFlow(&r.dfl, p), false
}

func (r *router) evalDemand(d *demandProg, p *netpkt.Packet) int {
	if d.kind == demandOwner {
		v := d.ownerGet(p)
		if v.k == kInt {
			delta := v.i - d.init
			if delta >= 0 && delta%d.step == 0 {
				return int((delta / d.step) % int64(r.n))
			}
		}
		// Not a value any shard's allocator will hand out: either the
		// lookup misses wherever it runs, or it hits a retired
		// (pre-populated) entry, which is frozen and replicated to every
		// shard. Both are correct anywhere; spread by the default hash.
		return r.evalFlow(&r.dfl, p)
	}
	if d.kind == demandNone {
		return r.evalFlow(&r.dfl, p)
	}
	return r.evalFlow(d, p)
}

// evalFlow hashes the sorted values of the demanded fields, so every
// permutation of the same value multiset — forward and reverse flow
// keys, whichever field names carry them — maps to the same shard.
func (r *router) evalFlow(d *demandProg, p *netpkt.Packet) int {
	var vals [8]scalar
	n := len(d.getters)
	for i, g := range d.getters {
		vals[i] = g(p)
	}
	for i := 1; i < n; i++ { // insertion sort, n <= 8
		for j := i; j > 0 && scalarLess(vals[j], vals[j-1]); j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	h := fnv64(fnvOffset64)
	for i := 0; i < n; i++ {
		_ = h.wscalar(vals[i])
	}
	return int(uint64(h) % uint64(r.n))
}

// SetPerf attaches a perf set to every shard.
func (s *Sharded) SetPerf(p *perf.Set) {
	s.perf = p
	for _, e := range s.engines {
		e.SetPerf(p)
	}
	p.Counter(perf.CDataplaneShards).Add(int64(len(s.engines)))
}

// SetEpoch tags every shard engine with a generation number (see
// Engine.SetEpoch). Call only between batches — ProcessBatch must have
// returned, so all shard goroutines are quiesced at the barrier.
func (s *Sharded) SetEpoch(v uint64) {
	for _, e := range s.engines {
		e.SetEpoch(v)
	}
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.engines) }

// Class returns the state classification the sharding was derived from.
func (s *Sharded) Class() *Classification { return s.cls }

// Handoffs counts the packets that took the serial hand-off path (zero
// for every corpus NF: their shard is always statelessly decidable).
func (s *Sharded) Handoffs() int64 { return s.handoffs }

// Process routes one packet to its owning shard (sequential mode).
func (s *Sharded) Process(p *netpkt.Packet) (*Output, error) {
	sh, amb := s.route.route(p)
	if amb {
		s.handoffs++
		if err := s.resolveHandoff(p, &s.out); err != nil {
			return nil, err
		}
		return &s.out, nil
	}
	return s.engines[sh].Process(p)
}

// ProcessBatch partitions pkts by the router and runs the shards
// concurrently, preserving per-shard packet order; outs[i] receives
// pkts[i]'s output. Ambiguous packets are barriers: the batch runs in
// segments around them, and they execute serially in between. On an
// evaluation error the owning shard stops (its earlier packets stay
// committed, like a sequential loop) and the error with the smallest
// packet index is returned.
func (s *Sharded) ProcessBatch(pkts []netpkt.Packet, outs []Output) error {
	if len(outs) < len(pkts) {
		return fmt.Errorf("dataplane: %d outputs for %d packets", len(outs), len(pkts))
	}
	if cap(s.shardOf) < len(pkts) {
		s.shardOf = make([]int32, len(pkts))
	}
	s.shardOf = s.shardOf[:len(pkts)]
	amb := false
	for i := range pkts {
		sh, a := s.route.route(&pkts[i])
		if a {
			s.shardOf[i] = -1
			amb = true
		} else {
			s.shardOf[i] = int32(sh)
		}
	}
	if !amb {
		if err := s.runSegment(pkts, outs, 0, len(pkts)); err != nil {
			return err
		}
	} else {
		lo := 0
		for i := 0; i <= len(pkts); i++ {
			if i < len(pkts) && s.shardOf[i] >= 0 {
				continue
			}
			if err := s.runSegment(pkts, outs, lo, i); err != nil {
				return err
			}
			if i < len(pkts) {
				s.handoffs++
				if err := s.resolveHandoff(&pkts[i], &outs[i]); err != nil {
					return fmt.Errorf("dataplane: packet %d: %w", i, err)
				}
			}
			lo = i + 1
		}
	}
	if s.perf != nil {
		s.perf.Counter(perf.CDataplaneBatches).Inc()
	}
	return nil
}

// runSegment fans pkts[lo:hi) out to their shards concurrently.
func (s *Sharded) runSegment(pkts []netpkt.Packet, outs []Output, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	for i := range s.idxs {
		s.idxs[i] = s.idxs[i][:0]
	}
	for i := lo; i < hi; i++ {
		sh := s.shardOf[i]
		s.idxs[sh] = append(s.idxs[sh], i)
	}
	var wg sync.WaitGroup
	for sh := range s.engines {
		if len(s.idxs[sh]) == 0 {
			s.errs[sh] = shardErr{at: -1}
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			e := s.engines[sh]
			s.errs[sh] = shardErr{at: -1}
			for _, i := range s.idxs[sh] {
				if err := e.process(&pkts[i], &outs[i]); err != nil {
					s.errs[sh] = shardErr{at: i, err: err}
					return
				}
			}
		}(sh)
	}
	wg.Wait()

	first := shardErr{at: -1}
	for sh := range s.errs {
		se := s.errs[sh]
		if se.err != nil && (first.err == nil || se.at < first.at) {
			first = se
		}
	}
	if first.err != nil {
		return fmt.Errorf("dataplane: packet %d: %w", first.at, first.err)
	}
	return nil
}

// resolveHandoff executes one routing-ambiguous packet serially: probe
// the live entries in priority order, each on the shard whose state it
// would read, and fire the first match there. The shards are idle
// between segments, so this is race-free. It is the completeness story:
// every model that classifies constructs a Sharded engine, with
// ambiguous packets paying serialization instead of failing
// construction.
func (s *Sharded) resolveHandoff(p *netpkt.Packet, out *Output) error {
	for i := range s.cls.plans {
		pl := &s.cls.plans[i]
		eng := s.engines[s.route.evalDemand(&s.planProgs[i], p)]
		ce := eng.entryAt(pl.idx)
		if ce == nil {
			continue
		}
		matched, err := eng.processEntry(p, ce, out)
		if err != nil {
			return err
		}
		if matched {
			return nil
		}
	}
	s.engines[s.route.evalFlow(&s.route.dfl, p)].dropNoMatch(p, out)
	return nil
}

// State merges the shard states back into the sequential view:
//   - flow and owned maps union (their key spaces are disjoint across
//     shards; for pre-populated flow maps the key's owner shard wins),
//   - allocators reconstruct the sequential position exactly — each
//     shard's offset into its interleaved range counts its allocations,
//     and the sequential allocator advanced once per allocation,
//   - rotors reconstruct the sequential position exactly the same way,
//     mod the cycle length,
//   - replicas report shard 0's (identical everywhere).
func (s *Sharded) State() map[string]value.Value {
	states := make([]map[string]value.Value, len(s.engines))
	for i := range s.engines {
		states[i] = s.engines[i].State()
	}
	return mergeShardStates(s.cls, states)
}

// mergeShardStates reconstructs the sequential-engine state from the
// per-shard states, inverting each classification's lowering. states[0]
// is reused as the output. Shared with ShardedChain (per stage).
func mergeShardStates(cls *Classification, states []map[string]value.Value) map[string]value.Value {
	out := states[0]
	if len(states) == 1 {
		return out
	}
	for name, vc := range cls.Vars {
		switch vc.Class {
		case ClassAllocator, ClassRotor:
			vals := make([]int64, len(states))
			for i := range states {
				vals[i] = states[i][name].I
			}
			if vc.Class == ClassAllocator {
				out[name] = value.Int(mergeAllocatorVals(vc, vals))
			} else {
				out[name] = value.Int(mergeRotorVals(vc, vals))
			}
		case ClassFrozen, ClassReplicaMap:
			// shard 0's copy, already in out.
		default: // flow and owned maps
			dst := out[name]
			for i := 1; i < len(states); i++ {
				v := states[i][name]
				for _, k := range v.Map.Keys() {
					val, _, _ := v.Map.Get(k)
					if _, present, _ := dst.Map.Get(k); present && ownerOfKey(k, len(states)) != i {
						continue
					}
					_ = dst.Map.Set(k, val)
				}
			}
		}
	}
	return out
}

// ownerOfKey replays the flow hash on a boxed map key's components: the
// shard whose traffic can reach this key. Only consulted for keys
// present on several shards (pre-populated flow maps).
func ownerOfKey(k value.Value, n int) int {
	var vals []scalar
	if k.Kind == value.KindTuple {
		for _, e := range k.Tuple {
			sv, err := scalarOf(e)
			if err != nil {
				return 0
			}
			vals = append(vals, sv)
		}
	} else {
		sv, err := scalarOf(k)
		if err != nil {
			return 0
		}
		vals = append(vals, sv)
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && scalarLess(vals[j], vals[j-1]); j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	h := fnv64(fnvOffset64)
	for i := range vals {
		_ = h.wscalar(vals[i])
	}
	return int(uint64(h) % uint64(n))
}

// ProcessExplain routes one packet to its owning shard in provenance
// mode (see Engine.ProcessExplain). Ambiguous packets report their
// hand-off resolution without a guard trail.
func (s *Sharded) ProcessExplain(p *netpkt.Packet) (*Output, *telemetry.PacketTrace, error) {
	sh, amb := s.route.route(p)
	if amb {
		s.handoffs++
		tr := &telemetry.PacketTrace{Packet: p.String(), Backend: "sharded", Entry: -1}
		if err := s.resolveHandoff(p, &s.out); err != nil {
			tr.Err = err.Error()
			return nil, tr, err
		}
		tr.Entry = s.out.Entry
		tr.Dropped = s.out.Dropped
		return &s.out, tr, nil
	}
	out, tr, err := s.engines[sh].ProcessExplain(p)
	if tr != nil {
		tr.Backend = "sharded"
	}
	return out, tr, err
}

// Telemetry merges the per-shard telemetry sinks on read: verdict and
// entry counters sum, latency histograms add, and flow/owned map sizes
// sum (their shard key spaces are disjoint). Scalar and replica gauges
// are per-shard copies, not partitions, so they report shard 0's value
// instead of a meaningless sum. Each shard's sink is written lock-free
// by its own goroutine; like State(), call this between batches, not
// mid-flight.
func (s *Sharded) Telemetry() telemetry.Snapshot {
	first := s.engines[0].Telemetry()
	snap := first
	for _, e := range s.engines[1:] {
		snap = snap.Merge(e.Telemetry())
	}
	for name, vc := range s.cls.Vars {
		switch vc.Class {
		case ClassAllocator, ClassRotor, ClassFrozen, ClassReplicaMap:
			snap.StateSizes[name] = first.StateSizes[name]
		}
	}
	snap.Backend = "sharded"
	return snap
}

// Stats sums the shard counters.
func (s *Sharded) Stats() Stats {
	var t Stats
	for _, e := range s.engines {
		st := e.Stats()
		t.Packets += st.Packets
		t.Drops += st.Drops
		t.Errors += st.Errors
	}
	return t
}

// Reset restores every shard to the initial state.
func (s *Sharded) Reset() {
	for _, e := range s.engines {
		e.Reset()
	}
	s.handoffs = 0
}
