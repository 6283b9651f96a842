package serve

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"nfactor/internal/core"
	"nfactor/internal/netpkt"
	"nfactor/internal/nfs"
	"nfactor/internal/obsrv"
	"nfactor/internal/telemetry"
	"nfactor/internal/value"
	"nfactor/internal/workload"
)

// warmGeneration prepares c, installs it as generation 1 and serves
// trace straight through its plane.
func warmGeneration(t *testing.T, c Candidate, trace []netpkt.Packet) *Generation {
	t.Helper()
	g, _, err := prepare(c)
	if err != nil {
		t.Fatal(err)
	}
	g.install(1)
	outs := make([]Outcome, 256)
	for lo := 0; lo < len(trace); lo += len(outs) {
		hi := min(lo+len(outs), len(trace))
		if err := g.plane.processBatch(trace[lo:hi], outs[:hi-lo]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// swapNow prepares c and runs the barrier half of its swap against
// old over window, as the serving loop does at a batch barrier.
func swapNow(t *testing.T, old *Generation, c Candidate, allowChange bool, window []netpkt.Packet) (*Generation, *SwapReport) {
	t.Helper()
	g, phases, err := prepare(c)
	if err != nil {
		t.Fatal(err)
	}
	tk := &swapTicket{req: SwapRequest{Candidate: c, AllowBehaviorChange: allowChange}, gen: g, phases: phases}
	return swap(old, tk, window, time.Now())
}

// checkCarried asserts every carried variable of the new plane
// deep-equals the old plane's pre-swap export (the O(table) audit the
// barrier no longer runs for handed-over tables), that every reset
// variable holds its new init, and that each decision names how it
// carried (want: "handed over" or "re-lowered").
func checkCarried(t *testing.T, gen *Generation, rep *SwapReport, before []map[string]value.Value, want string) {
	t.Helper()
	after := gen.plane.stageStates()
	carried := map[string]bool{}
	for _, d := range rep.Decisions {
		carried[d.Var] = d.Carried
		if d.Carried && !strings.Contains(d.Reason, want) {
			t.Errorf("%s carried as %q, want %q", d.Var, d.Reason, want)
		}
	}
	for i := range after {
		for name, got := range after[i] {
			v := stageVar(gen.stages, i, name)
			switch {
			case carried[v] && !value.Equal(got, before[i][name]):
				t.Errorf("%s: new plane holds %s, old plane exported %s", v, got, before[i][name])
			case !carried[v] && !value.Equal(got, gen.stages[i].init[name]):
				t.Errorf("%s reset to %s, want init %s", v, got, gen.stages[i].init[name])
			}
		}
	}
}

// TestHandOffPreservesState swaps identical re-syntheses on a
// sequential plane, sharded 2 and 4, and fused chains: every carried
// variable is handed over by ownership, and the new plane's export
// deep-equals the old plane's pre-swap export.
func TestHandOffPreservesState(t *testing.T) {
	nat, nat2 := analyzeNF(t, "nat"), analyzeNF(t, "nat")
	natTrace := append(workload.NATWarm(600), workload.NATWindow(512, 256, 20000)...)
	stages, err := core.AnalyzeChain([]string{"dpi", "snortlite"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stages2, err := core.AnalyzeChain([]string{"dpi", "snortlite"}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	chainTrace := workload.New(5).RandomTrace(600)

	cases := []struct {
		name      string
		old, next Candidate
		trace     []netpkt.Packet
	}{
		{"engine", Candidate{Analysis: nat}, Candidate{Analysis: nat2}, natTrace},
		{"sharded=2", Candidate{Analysis: nat, Shards: 2}, Candidate{Analysis: nat2, Shards: 2}, natTrace},
		{"sharded=4", Candidate{Analysis: nat, Shards: 4}, Candidate{Analysis: nat2, Shards: 4}, natTrace},
		{"chain", Candidate{Stages: stages}, Candidate{Stages: stages2}, chainTrace},
		{"chain-sharded=2", Candidate{Stages: stages, Shards: 2}, Candidate{Stages: stages2, Shards: 2}, chainTrace},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			old := warmGeneration(t, c.old, c.trace)
			before := old.plane.stageStates()
			gen, rep := swapNow(t, old, c.next, false, c.trace[len(c.trace)-256:])
			if rep.Blocked {
				t.Fatalf("swap blocked: %s", rep.Reason)
			}
			if rep.Carried == 0 {
				t.Fatalf("nothing carried:\n%s", rep.Render())
			}
			checkCarried(t, gen, rep, before, "handed over")

			// The new plane keeps serving from the handed-over state:
			// further traffic leaves both generations' exports equal
			// to a plane that never swapped.
			ref := warmGeneration(t, c.old, c.trace)
			more := c.trace[:256]
			outs, refOuts := make([]Outcome, len(more)), make([]Outcome, len(more))
			if err := gen.plane.processBatch(more, outs); err != nil {
				t.Fatal(err)
			}
			if err := ref.plane.processBatch(more, refOuts); err != nil {
				t.Fatal(err)
			}
			for i := range outs {
				if d := verdictDiff(refOuts[i].Verdict, outs[i].Verdict); d != "" {
					t.Fatalf("packet %d after the hand-off: %s", i, d)
				}
			}
		})
	}
}

// natWithoutReverse re-synthesizes the NAT with its reverse table never
// written: rev changes class (owned-map -> replica-map) while fwd and
// next_port keep theirs.
func natWithoutReverse(t *testing.T) *core.Analysis {
	t.Helper()
	base := nfs.MustLoad("nat").Source
	src := strings.Replace(base, "            rev[p] = k;\n", "", 1)
	if src == base {
		t.Fatal("nat source changed shape; update the test's edit")
	}
	return analyzeSource(t, "nat", src)
}

// TestHandOffLoweringChange covers the swaps whose lowering differs:
// a shard-count change re-lowers every carried variable through the
// export -> CarryOver -> build path, and a class-changing candidate
// resets the changed variable while the rest are handed over. The
// audit passes in every case.
func TestHandOffLoweringChange(t *testing.T) {
	nat, nat2 := analyzeNF(t, "nat"), analyzeNF(t, "nat")
	trace := append(workload.NATWarm(600), workload.NATWindow(512, 256, 20000)...)
	window := trace[len(trace)-256:]

	for _, c := range []struct{ from, to int }{{1, 2}, {2, 1}, {2, 4}} {
		t.Run(fmt.Sprintf("shards=%d->%d", c.from, c.to), func(t *testing.T) {
			old := warmGeneration(t, Candidate{Analysis: nat, Shards: c.from}, trace)
			before := old.plane.stageStates()
			gen, rep := swapNow(t, old, Candidate{Analysis: nat2, Shards: c.to}, false, window)
			if rep.Blocked {
				t.Fatalf("swap blocked: %s", rep.Reason)
			}
			// A sharded source's merged allocator counts allocations;
			// the carry bumps it past the owned map's high-water mark,
			// so only the tables compare exactly.
			after := gen.plane.stageStates()
			for _, name := range []string{"fwd", "rev"} {
				if !value.Equal(after[0][name], before[0][name]) {
					t.Errorf("%s did not survive the re-lowering", name)
				}
			}
			if after[0]["next_port"].I < before[0]["next_port"].I {
				t.Errorf("allocator went back: %d -> %d", before[0]["next_port"].I, after[0]["next_port"].I)
			}
			for _, d := range rep.Decisions {
				if !d.Carried || !strings.Contains(d.Reason, "re-lowered") {
					t.Errorf("%s: %v %q, want carried and re-lowered", d.Var, d.Carried, d.Reason)
				}
			}
		})
	}

	// A re-lowered sharded plane decodes owners on the carried
	// allocator's lattice; handing it over again must keep that
	// origin, or replies to ports allocated after the swaps would
	// route to a shard that never saw them.
	t.Run("shards=1->2->2", func(t *testing.T) {
		// An odd flow count puts the carried seed off the pristine
		// lattice's shard phase.
		g1 := warmGeneration(t, Candidate{Analysis: nat}, append(workload.NATWarm(601), window...))
		g2, rep := swapNow(t, g1, Candidate{Analysis: nat2, Shards: 2}, false, window)
		if rep.Blocked {
			t.Fatalf("re-lowering swap blocked: %s", rep.Reason)
		}
		before := g2.plane.stageStates()
		g3, rep := swapNow(t, g2, Candidate{Analysis: nat, Shards: 2}, false, window)
		if rep.Blocked {
			t.Fatalf("hand-off swap blocked: %s", rep.Reason)
		}
		checkCarried(t, g3, rep, before, "handed over")
		var fresh []netpkt.Packet
		for i := 601; i < 701; i++ {
			fresh = append(fresh, workload.NATLanFlow(i))
		}
		outs := make([]Outcome, len(fresh))
		if err := g3.plane.processBatch(fresh, outs); err != nil {
			t.Fatal(err)
		}
		replies := make([]netpkt.Packet, len(fresh))
		for i := range outs {
			replies[i] = netpkt.Packet{SrcIP: "7.7.7.7", DstIP: "5.5.5.5", SrcPort: 80,
				DstPort: outs[i].Verdict.Sent[0].SrcPort, Proto: "tcp", Flags: "A", TTL: 60, InIface: "wan"}
		}
		if err := g3.plane.processBatch(replies, outs); err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if outs[i].Verdict.Dropped || outs[i].Verdict.Sent[0].DstIP != fresh[i].SrcIP {
				t.Fatalf("reply to port %d not translated back to %s: %+v", replies[i].DstPort, fresh[i].SrcIP, outs[i].Verdict)
			}
		}
	})

	t.Run("class-change", func(t *testing.T) {
		old := warmGeneration(t, Candidate{Analysis: nat}, trace)
		before := old.plane.stageStates()
		gen, rep := swapNow(t, old, Candidate{Analysis: natWithoutReverse(t)}, true, window)
		if rep.Blocked {
			t.Fatalf("swap blocked: %s", rep.Reason)
		}
		checkCarried(t, gen, rep, before, "handed over")
		for _, d := range rep.Decisions {
			if want := d.Var != "rev"; d.Carried != want {
				t.Errorf("%s carried=%v (%s), want %v", d.Var, d.Carried, d.Reason, want)
			}
		}
	})
}

// TestSwapBarrierAllocFlat checks the barrier's work does not grow with
// the table: the same 1024-packet window gates a NAT swap at 1k and at
// 50k flows, and the barrier phase's heap allocations are equal up to a
// small constant. A deterministic count, not a timing.
func TestSwapBarrierAllocFlat(t *testing.T) {
	nat, nat2 := analyzeNF(t, "nat"), analyzeNF(t, "nat")
	window := workload.NATWindow(1024, 256, 20000)
	allocs := func(flows int) uint64 {
		old := warmGeneration(t, Candidate{Analysis: nat}, append(workload.NATWarm(flows), window...))
		g, phases, err := prepare(Candidate{Analysis: nat2})
		if err != nil {
			t.Fatal(err)
		}
		tk := &swapTicket{req: SwapRequest{Candidate: Candidate{Analysis: nat2}}, gen: g, phases: phases}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, rep := swap(old, tk, window, time.Now())
		runtime.ReadMemStats(&m1)
		if rep.Blocked || rep.Carried != 3 {
			t.Fatalf("swap at %d flows: %s", flows, rep.Render())
		}
		return m1.Mallocs - m0.Mallocs
	}
	small, large := allocs(1000), allocs(50000)
	const slack = 64
	if large > small+slack || small > large+slack {
		t.Errorf("barrier allocations depend on table size: %d at 1k flows, %d at 50k (slack %d)", small, large, slack)
	}
	t.Logf("barrier allocations: %d at 1k flows, %d at 50k", small, large)
}

// TestSwapPhaseAttribution follows one swap's phase timings through
// every instrument: the report (prepare phases first, then the barrier
// phases, whose sum bounds the pause), ServeStats, the /swaps audit
// trail's JSON and the /metrics phase gauges.
func TestSwapPhaseAttribution(t *testing.T) {
	nat, nat2 := analyzeNF(t, "nat"), analyzeNF(t, "nat")
	trace := append(workload.NATWarm(300), workload.NATWindow(724, 256, 20000)...)
	srv, err := New(Candidate{Analysis: nat}, Config{
		Source: NewTraceSource(trace, false, 0),
		Obs:    &obsrv.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := srv.RequestSwap(SwapRequest{Candidate: Candidate{Analysis: nat2}, AfterPackets: 512})
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	rep := <-ch
	if rep.Blocked {
		t.Fatalf("swap blocked: %s", rep.Reason)
	}
	var names []string
	var barrier time.Duration
	for i, ph := range rep.Phases {
		names = append(names, ph.Phase)
		if ph.Barrier != (i >= 3) {
			t.Errorf("phase %s: barrier=%v", ph.Phase, ph.Barrier)
		}
		if ph.Barrier {
			barrier += ph.Dur
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(telemetry.SwapPhaseNames, ","); got != want {
		t.Errorf("phases %s, want %s", got, want)
	}
	if rep.Prepare <= 0 || rep.Pause < barrier {
		t.Errorf("prepare %s, pause %s below its barrier phases' %s", rep.Prepare, rep.Pause, barrier)
	}
	if !strings.Contains(rep.Render(), "| gate_faithful=") {
		t.Errorf("rendered report lacks the phase line:\n%s", rep.Render())
	}
	if st := srv.Stats(); len(st.LastSwapPhases) != len(rep.Phases) || st.LastSwapPauseNs != rep.Pause.Nanoseconds() {
		t.Errorf("stats carry phases %v, pause %d", st.LastSwapPhases, st.LastSwapPauseNs)
	}
	events, err := json.Marshal(srv.SwapEvents())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"phase":"handoff","barrier":true`) || !strings.Contains(string(events), `"prepare_ns"`) {
		t.Errorf("/swaps JSON lacks the phases: %s", events)
	}
	var prom strings.Builder
	if err := obsrv.WriteAllMetrics(&prom, srv, "nat", nil); err != nil {
		t.Fatal(err)
	}
	for _, ph := range telemetry.SwapPhaseNames {
		if want := fmt.Sprintf(`nfactor_serve_swap_phase_seconds{nf="nat",phase=%q} `, ph); !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}
