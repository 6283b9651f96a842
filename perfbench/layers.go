package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"nfactor"
	"nfactor/internal/chain"
	"nfactor/internal/dataplane"
	"nfactor/internal/value"
)

// The traced run's per-layer attribution. Every number here comes from
// calling the layer's exported functions directly, from the benchmark's
// own files, with a span around each call.

// plane is a bare compiled engine: one NF or the fused chain.
type plane struct {
	one  *dataplane.Engine
	many *dataplane.ChainEngine
	outs []dataplane.Output
	cout []dataplane.ChainOutput
}

// specOf describes a candidate as chain stages (one for a single NF),
// each with its concrete config and pristine state.
func specOf(c nfactor.ServeCandidate) ([]chain.NamedModel, error) {
	if c.Analysis == nil {
		return c.Stages, nil
	}
	config, init, err := c.Analysis.ConfigAndState(c.Opts.ConfigOverride)
	if err != nil {
		return nil, err
	}
	return []chain.NamedModel{{Name: c.Analysis.NFName, Model: c.Analysis.Model, Config: config, State: init}}, nil
}

// compile builds the plane from spec, each stage starting from state[i]
// (nil: the stage's pristine state).
func compile(spec []chain.NamedModel, state []map[string]value.Value) (*plane, error) {
	spec = append([]chain.NamedModel(nil), spec...)
	for i := range state {
		if state[i] != nil {
			spec[i].State = state[i]
		}
	}
	if len(spec) == 1 {
		e, err := dataplane.Compile(spec[0].Model, spec[0].Config, spec[0].State)
		return &plane{one: e}, err
	}
	e, err := dataplane.CompileChain(spec)
	return &plane{many: e}, err
}

func (p *plane) batch(pkts []nfactor.Packet) error {
	if p.one != nil {
		if len(p.outs) < len(pkts) {
			p.outs = make([]dataplane.Output, len(pkts))
		}
		return p.one.ProcessBatch(pkts, p.outs[:len(pkts)])
	}
	if len(p.cout) < len(pkts) {
		p.cout = make([]dataplane.ChainOutput, len(pkts))
	}
	return p.many.ProcessBatch(pkts, p.cout[:len(pkts)])
}

// process runs one packet and returns its sends (engine-owned).
func (p *plane) process(pkt *nfactor.Packet) ([]dataplane.SentPacket, error) {
	if p.one != nil {
		o, err := p.one.Process(pkt)
		if err != nil {
			return nil, err
		}
		return o.Sent, nil
	}
	o, err := p.many.Process(pkt)
	if err != nil {
		return nil, err
	}
	return o.Sent, nil
}

func (p *plane) states() []map[string]value.Value {
	if p.one != nil {
		return []map[string]value.Value{p.one.State()}
	}
	out := make([]map[string]value.Value, p.many.NumStages())
	for i := range out {
		out[i] = p.many.StageState(i)
	}
	return out
}

// feed runs packets [from, to) of the measured sequence through p in
// 64-packet batches, after the warm-up packets when warm is set. It
// returns the ns spent inside ProcessBatch.
func (b *bench) feed(p *plane, warm bool, from, to int64) (int64, error) {
	buf := make([]nfactor.Packet, 0, 64)
	var busy int64
	flush := func() error {
		t0 := now()
		err := p.batch(buf)
		busy += now() - t0
		buf = buf[:0]
		return err
	}
	if warm {
		for i := range b.w.warm {
			if buf = append(buf, b.w.warm[i]); len(buf) == cap(buf) {
				if err := flush(); err != nil {
					return 0, err
				}
			}
		}
	}
	var pkt nfactor.Packet
	for k := from; k < to; k++ {
		b.w.packet(k, &pkt)
		if buf = append(buf, pkt); len(buf) == cap(buf) {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if len(buf) > 0 {
		return busy, flush()
	}
	return busy, nil
}

func (b *bench) put(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// layers measures every per-layer metric after the traced window.
func (b *bench) layers(parent int64) error {
	id, end := b.span("layers", parent)
	defer end()
	spec, err := specOf(b.cand)
	if err != nil {
		return err
	}
	b.put("core.analyze_ms", median(b.analyzeMs), "ms")
	b.put("solver.cache_hit_rate", b.hitRate, "ratio")
	// The swap copy runs first, beside the measured server alone, so its
	// heap and GC load resemble the live swap's.
	if err := b.swapLayer(id, spec); err != nil {
		return err
	}
	if err := b.dataplaneLayer(id, spec); err != nil {
		return err
	}
	if err := b.probes(id); err != nil {
		return err
	}
	b.serveLayer()
	return nil
}

// measuredPkts is how many packets of the sequence the bare-engine loop
// serves (the probes serve half): one rep, or 2^18 on the open-loop
// workload.
func (b *bench) measuredPkts() int64 {
	if b.w.open {
		return 1 << 18
	}
	return b.w.p.repPkts
}

func (b *bench) dataplaneLayer(parent int64, spec []chain.NamedModel) error {
	id, end := b.span("dataplane", parent)
	defer end()
	var compileMs []float64
	for i := 0; i < 5; i++ {
		_, endC := b.span("dataplane.compile", id)
		t0 := now()
		_, err := compile(spec, nil)
		compileMs = append(compileMs, float64(now()-t0)/1e6)
		endC()
		if err != nil {
			return err
		}
	}
	b.put("dataplane.compile_ms", median(compileMs), "ms")

	// Bare ProcessBatch over the workload's own packets, from the state
	// the server measured from: warmed, or pristine for chain-churn.
	p, err := compile(spec, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	h1 := readMem()
	n := b.measuredPkts()
	if _, err := b.feed(p, true, 0, 0); err != nil {
		return err
	}
	_, endE := b.span("dataplane.engine", id)
	m0 := readMem()
	busy, err := b.feed(p, false, 0, n)
	m1 := readMem()
	endE()
	if err != nil {
		return err
	}
	b.put("dataplane.engine_ns_pkt", float64(busy)/float64(n), "ns")
	b.put("dataplane.allocs_per_pkt", float64(m1.Mallocs-m0.Mallocs)/float64(n), "count")
	runtime.GC()
	h2 := readMem()
	// A flow is an entry of the largest state map; every stage's
	// per-flow state is charged to it.
	flows := 0
	for _, st := range p.states() {
		for _, v := range st {
			if v.Kind != value.KindMap {
				continue
			}
			if n, _ := v.Len(); n > flows {
				flows = n
			}
		}
	}
	runtime.KeepAlive(p)
	b.put("dataplane.state_bytes_per_flow", (float64(h2.HeapAlloc)-float64(h1.HeapAlloc))/float64(max(flows, 1)), "B")
	return nil
}

// probes runs paired closed-loop reps on the workload's packets: plain
// (observers off, no harness timing), with the harness timing of a
// traced run, and with observers on. Pairing within each round keeps
// machine drift out of the differences.
func (b *bench) probes(parent int64) error {
	id, end := b.span("probes", parent)
	defer end()
	srvs := map[bool]*nfactor.Server{}
	get := func(obs bool) (*nfactor.Server, error) {
		if srv := srvs[obs]; srv != nil && !b.w.churn {
			return srv, nil
		}
		srv, err := b.newServer(b.cand, obs)
		if err == nil && !b.w.churn {
			err = b.warm(srv)
		}
		srvs[obs] = srv
		return srv, err
	}
	n := b.measuredPkts() / 2
	var plain, instr, obs []float64
	for round := 0; round < 5; round++ {
		for _, mode := range []int{0, 1, 2} {
			srv, err := get(mode == 2)
			if err != nil {
				return err
			}
			b.src.instrument = mode == 1
			runtime.GC()
			_, endP := b.span(fmt.Sprintf("probe.%s", []string{"plain", "traced", "obsrv"}[mode]), id)
			ns, err := b.serveClosed(srv, 0, n)
			endP()
			b.src.instrument = false
			if err != nil {
				return err
			}
			switch mode {
			case 0:
				plain = append(plain, ns)
			case 1:
				instr = append(instr, ns)
			default:
				obs = append(obs, ns)
			}
		}
	}
	b.logf("probes ns/pkt plain=%.0f traced=%.0f obsrv=%.0f", plain, instr, obs)
	var dObs, dTr []float64
	for i := range plain {
		dObs = append(dObs, obs[i]-plain[i])
		dTr = append(dTr, 100*(instr[i]/plain[i]-1))
	}
	b.put("serve.run_ns_pkt", median(plain), "ns")
	b.put("obsrv.collect_ns_pkt", median(dObs), "ns")
	b.put("trace.overhead_pct", median(dTr), "%")
	scrapes := b.scrapeMs
	for len(scrapes) < 5 {
		t0 := now()
		if err := nfactor.WriteServeMetrics(io.Discard, srvs[true], b.w.name, nil); err != nil {
			return err
		}
		scrapes = append(scrapes, float64(now()-t0)/1e6)
	}
	b.put("obsrv.scrape_ms", median(scrapes), "ms")
	return nil
}

func (b *bench) serveLayer() {
	src := perCall(b.srcCost)
	snk := perCall(b.sinkCost)
	b.put("serve.source_ns_pkt", src, "ns")
	b.put("serve.sink_ns_pkt", snk, "ns")
	b.put("serve.loop_self_ns_pkt", b.layer["serve.run_ns_pkt"].Value-b.layer["dataplane.engine_ns_pkt"].Value-src-snk, "ns")
	var d memDelta
	if b.w.open {
		d = b.steady
	} else {
		for _, r := range b.repMs {
			d.pkts, d.mallocs, d.gcs = d.pkts+r.pkts, d.mallocs+r.mallocs, d.gcs+r.gcs
		}
	}
	pkts := float64(max(d.pkts, 1))
	b.put("serve.allocs_per_pkt", float64(d.mallocs)/pkts, "count")
	b.put("serve.gc_per_mpkt", float64(d.gcs)/pkts*1e6, "count")
}

// callCost is the summed own time of the timed Next or Emit calls.
type callCost struct{ ns, n int64 }

// perCall is the mean own time of one call, including one clock read.
func perCall(c callCost) float64 {
	return float64(c.ns) / float64(max(c.n, 1))
}

// swapLayer times, on a copy of the live plane, the exported calls the
// swap makes at the barrier, in its order: both gates over the window,
// the state export, the carry-over, the rebuild from the carried state
// and the post-build comparison. What the measured pause holds beyond
// them is reported as unattributed.
func (b *bench) swapLayer(parent int64, spec []chain.NamedModel) error {
	id, end := b.span("serve.swap", parent)
	defer end()
	if len(b.sink.swapAt) == 0 {
		return fmt.Errorf("no swap was observed")
	}
	cand, _, err := b.analyze()
	if err != nil {
		return err
	}
	next, err := specOf(cand)
	if err != nil {
		return err
	}
	// The live state at the first swap: steady workloads hold the same
	// state after set-up at every point; chain-churn replays its server's
	// sequence from pristine state.
	at := b.sink.swapAt[0]
	live, err := compile(spec, nil)
	if err != nil {
		return err
	}
	if b.w.churn {
		_, err = b.feed(live, false, 0, at)
	} else {
		_, err = b.feed(live, true, 0, int64(len(b.w.trace)))
	}
	if err != nil {
		return err
	}
	window := make([]nfactor.Packet, 0, 1024)
	for k := at - 1024; k < at; k++ {
		if k >= 0 {
			var p nfactor.Packet
			b.w.packet(k, &p)
			window = append(window, p)
		}
	}

	// Classification is part of the swap's normalize step, which the
	// phases below leave to the unattributed residual.
	oldCls := make([]*dataplane.Classification, len(spec))
	newCls := make([]*dataplane.Classification, len(next))
	for i := range spec {
		oldCls[i], _ = dataplane.Classify(spec[i].Model, spec[i].Config, spec[i].State)
	}
	for i := range next {
		newCls[i], _ = dataplane.Classify(next[i].Model, next[i].Config, next[i].State)
	}
	var st, carried []map[string]value.Value
	var rebuilt *plane
	phases := []struct {
		name string
		fn   func() error
	}{
		{"gate_faithful", func() error {
			if cand.Analysis != nil {
				res, err := cand.Analysis.DiffTestCompiled(window, cand.Opts)
				if err == nil && res.Mismatches > 0 {
					err = fmt.Errorf("faithfulness gate: %s", res.FirstDiff)
				}
				return err
			}
			res, err := dataplane.DiffTestChain(next, window)
			if err == nil && res.Mismatches > 0 {
				err = fmt.Errorf("faithfulness gate: %s", res.FirstDiff)
			}
			return err
		}},
		{"gate_behavior", func() error { return behaviorGate(spec, next, window) }},
		{"state_export", func() error { st = live.states(); return nil }},
		{"carry", func() error {
			carried = make([]map[string]value.Value, len(next))
			for i := range next {
				carried[i], _ = dataplane.CarryOver(oldCls[i], newCls[i], st[i], next[i].State)
			}
			return nil
		}},
		{"rebuild", func() error {
			var err error
			rebuilt, err = compile(next, carried)
			return err
		}},
		{"verify", func() error {
			got := rebuilt.states()
			for i := range carried {
				for name, want := range carried[i] {
					if have, ok := got[i][name]; !ok || !value.Equal(want, have) {
						return fmt.Errorf("carried %s did not survive the rebuild", name)
					}
				}
			}
			return nil
		}},
	}
	runtime.GC()
	var sum float64
	for _, ph := range phases {
		_, endP := b.span("serve.swap."+ph.name, id)
		t0 := now()
		err := ph.fn()
		ms := float64(now()-t0) / 1e6
		endP()
		if err != nil {
			return fmt.Errorf("swap phase %s: %w", ph.name, err)
		}
		b.put("serve.swap."+ph.name+"_ms", ms, "ms")
		sum += ms
	}
	b.put("serve.swap.unattributed_ms", median(b.swapGaps)-sum, "ms")
	b.put("serve.swap.report_pause_ms", median(b.swapPause), "ms")
	return nil
}

// behaviorGate replays pristine compiled replicas of the old and the new
// generation over the window in lockstep and compares their sends.
func behaviorGate(old, next []chain.NamedModel, window []nfactor.Packet) error {
	a, err := compile(old, nil)
	if err != nil {
		return err
	}
	c, err := compile(next, nil)
	if err != nil {
		return err
	}
	for i := range window {
		sa, err := a.process(&window[i])
		if err != nil {
			return err
		}
		sc, err := c.process(&window[i])
		if err != nil {
			return err
		}
		if len(sa) != len(sc) {
			return fmt.Errorf("behavior gate: packet %d diverges", i)
		}
		for j := range sa {
			if sa[j] != sc[j] {
				return fmt.Errorf("behavior gate: packet %d diverges", i)
			}
		}
	}
	return nil
}

// writeTrace writes the run's spans as Chrome trace-event JSON, reads
// them back and logs each span name's self time: its duration less the
// time its child spans cover.
func (b *bench) writeTrace() error {
	path := filepath.Join(b.cfg.out, fmt.Sprintf("trace-%s-%d.json", b.w.name, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	self, err := selfTimes(data)
	if err != nil {
		return err
	}
	b.logf("self time per span (ms), trace in %s:", path)
	for _, name := range sortedKeys(self) {
		b.logf("  %-34s %12.3f", name, self[name])
	}
	return nil
}

// selfTimes sums, per span name, each span's duration minus its direct
// children's durations, in ms.
func selfTimes(chromeJSON []byte) (map[string]float64, error) {
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeJSON, &doc); err != nil {
		return nil, err
	}
	type node struct {
		name string
		dur  float64
	}
	nodes := map[float64]*node{}
	parents := map[float64]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["id"].(float64)
		par, _ := ev.Args["parent"].(float64)
		nodes[id] = &node{ev.Name, ev.Dur}
		parents[id] = par
	}
	self := map[string]float64{}
	for id, n := range nodes {
		self[n.name] += n.dur / 1e3
		if p, ok := nodes[parents[id]]; ok {
			self[p.name] -= n.dur / 1e3
		}
	}
	return self, nil
}
