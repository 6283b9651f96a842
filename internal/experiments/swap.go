package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nfactor/internal/core"
	"nfactor/internal/netpkt"
	"nfactor/internal/nfs"
	"nfactor/internal/serve"
	"nfactor/internal/telemetry"
	"nfactor/internal/workload"
)

// SwapRow is one table size's hot-swap measurement: a NAT warmed to
// Flows translations serves a fixed gating window, then swaps in an
// independently re-synthesized identical NAT (both gates on). Every
// duration is read from the SwapReport — the same instrument /swaps
// and /metrics export — except WorstBatchMs, the largest gap between
// consecutive emits around the swap as the sink saw it. Each field is
// the median over the row's reps.
type SwapRow struct {
	NF        string
	Flows     int
	WindowLen int
	Reps      int
	Carried   int
	// PauseMs is the barrier pause (SwapReport.Pause): the window
	// gates, hand-off, audit and epoch flip, with the data plane
	// quiesced. PrepareMs ran on the requester's goroutine.
	PauseMs      float64
	WorstBatchMs float64
	PrepareMs    float64
	// PhaseMs is every protocol phase (telemetry.SwapPhaseNames).
	PhaseMs map[string]float64
}

// swapWindow is the gating window: the server's default WindowSize.
const swapWindow = 1024

// Swap measures the NAT hot swap at each table size in flows, reps
// times each.
func Swap(flows []int, reps int) ([]SwapRow, error) {
	if reps <= 0 {
		reps = 3
	}
	nf, err := nfs.Load("nat")
	if err != nil {
		return nil, err
	}
	base, err := core.Analyze("nat", nf.Prog, core.Options{})
	if err != nil {
		return nil, err
	}
	next, err := core.Analyze("nat", nf.Prog, core.Options{}) // independent re-synthesis
	if err != nil {
		return nil, err
	}
	window := workload.NATWindow(swapWindow, 256, 20000)
	var rows []SwapRow
	for _, n := range flows {
		row := SwapRow{NF: "nat", Flows: n, WindowLen: swapWindow, Reps: reps, PhaseMs: map[string]float64{}}
		var pause, worst, prep []float64
		phases := map[string][]float64{}
		for r := 0; r < reps; r++ {
			rep, gap, err := swapOnce(base, next, n, window)
			if err != nil {
				return nil, fmt.Errorf("nat at %d flows: %w", n, err)
			}
			row.Carried = rep.Carried
			pause = append(pause, ms(rep.Pause))
			worst = append(worst, ms(gap))
			prep = append(prep, ms(rep.Prepare))
			for _, ph := range rep.Phases {
				phases[ph.Phase] = append(phases[ph.Phase], ms(ph.Dur))
			}
		}
		row.PauseMs, row.WorstBatchMs, row.PrepareMs = medianOf(pause), medianOf(worst), medianOf(prep)
		for ph, v := range phases {
			row.PhaseMs[ph] = medianOf(v)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// swapOnce serves warm-up, window, then a tail on a fresh server, with
// the swap placed at the barrier right after the window. It returns the
// report and the largest gap between consecutive emits over the window
// and the tail.
func swapOnce(base, next *core.Analysis, flows int, window []netpkt.Packet) (*serve.SwapReport, time.Duration, error) {
	trace := workload.NATWarm(flows)
	trace = append(trace, window...)
	trace = append(trace, window...) // post-swap tail
	var last time.Time
	var gap time.Duration
	sink := serve.SinkFunc(func(seq int64, p *netpkt.Packet, o *serve.Outcome) error {
		if seq <= int64(flows) {
			return nil
		}
		now := time.Now()
		if !last.IsZero() && now.Sub(last) > gap {
			gap = now.Sub(last)
		}
		last = now
		return nil
	})
	srv, err := serve.New(serve.Candidate{Analysis: base}, serve.Config{
		Source:     serve.NewTraceSource(trace, false, 0),
		Sink:       sink,
		WindowSize: len(window),
	})
	if err != nil {
		return nil, 0, err
	}
	ch := srv.RequestSwap(serve.SwapRequest{Candidate: serve.Candidate{Analysis: next},
		AfterPackets: int64(flows + len(window))})
	if err := srv.Run(); err != nil {
		return nil, 0, err
	}
	rep := <-ch
	if rep.Blocked {
		return nil, 0, fmt.Errorf("swap blocked: %s", rep.Reason)
	}
	if st := srv.Stats(); st.EpochViolations != 0 || st.Swaps != 1 {
		return nil, 0, fmt.Errorf("serve stats: %s", st.Report())
	}
	return rep, gap, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// FormatSwap renders the rows as a table: pause and worst batch, then
// the prepare and barrier phases.
func FormatSwap(rows []SwapRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %7s %9s %10s %10s", "NF", "flows", "pause_ms", "worst_ms", "prep_ms")
	for _, ph := range telemetry.SwapPhaseNames {
		fmt.Fprintf(&b, " %13s", ph)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %7d %9.2f %10.2f %10.2f", r.NF, r.Flows, r.PauseMs, r.WorstBatchMs, r.PrepareMs)
		for _, ph := range telemetry.SwapPhaseNames {
			fmt.Fprintf(&b, " %13.2f", r.PhaseMs[ph])
		}
		b.WriteString("\n")
	}
	return b.String()
}
