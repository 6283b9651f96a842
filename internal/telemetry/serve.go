package telemetry

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// ServeStats is the serving loop's own telemetry, layered over the
// engine Snapshot: generation bookkeeping for hot swaps and the
// per-packet consistency check. A Server publishes an immutable copy
// after every batch.
type ServeStats struct {
	// Generation is the epoch of the currently serving engine; it starts
	// at 1 and increments once per applied swap.
	Generation uint64
	// Packets is the total served (ingress) packet count across all
	// generations.
	Packets int64
	// Swaps counts applied generation swaps; SwapsBlocked counts swap
	// requests the gate refused (candidate faithfulness or behavior
	// divergence over the live window).
	Swaps        int64
	SwapsBlocked int64
	// CarriedVars / ResetVars total the per-variable carry-over
	// decisions across all applied swaps.
	CarriedVars int64
	ResetVars   int64
	// EpochViolations counts packets whose output epoch broke the
	// per-packet consistency invariant: every batch must be uniformly
	// stamped with the serving generation, and stamps must never move
	// backwards. Always 0 unless the swap barrier is broken.
	EpochViolations int64
	// LastSwapPauseNs is how long the data plane was quiesced at the
	// batch barrier for the most recent applied swap: the window gates,
	// the state hand-off, the audit and the epoch flip.
	LastSwapPauseNs int64
	// LastSwapPhases times every phase of the most recent applied swap,
	// the prepare phases (off the serving goroutine) included.
	LastSwapPhases []SwapPhase
	// WindowLen is the number of recently served packets currently held
	// for gating the next swap.
	WindowLen int64
}

// The hot-swap protocol's phases, in order. The prepare phases run on
// the requester's goroutine while the old generation keeps serving;
// the barrier phases run on the serving goroutine with no packet in
// flight, and their sum is the swap's pause.
const (
	PhaseNormalize    = "normalize"     // prepare: config, init state, entry fingerprints
	PhaseClassify     = "classify"      // prepare: per-variable state classification
	PhaseCompile      = "compile"       // prepare: serving plane + gate replica from pristine init
	PhaseGateFaithful = "gate_faithful" // barrier: candidate vs its own reference over the window
	PhaseGateBehavior = "gate_behavior" // barrier: old vs new pristine replicas over the window
	PhaseHandoff      = "handoff"       // barrier: carry decisions and state hand-off
	PhaseAudit        = "audit"         // barrier: carried state landed in the new plane
)

// SwapPhaseNames lists every phase in protocol order.
var SwapPhaseNames = []string{PhaseNormalize, PhaseClassify, PhaseCompile,
	PhaseGateFaithful, PhaseGateBehavior, PhaseHandoff, PhaseAudit}

// SwapPhase is one timed phase of a generation swap.
type SwapPhase struct {
	Phase string `json:"phase"`
	// Barrier marks a phase that ran at the batch barrier, with the
	// data plane quiesced.
	Barrier bool          `json:"barrier"`
	Dur     time.Duration `json:"ns"`
}

// RenderSwapPhases formats phase timings as "name=dur ...", with a "|"
// between the prepare and the barrier phases.
func RenderSwapPhases(phases []SwapPhase) string {
	var b strings.Builder
	for i, ph := range phases {
		if i > 0 {
			b.WriteByte(' ')
		}
		if ph.Barrier && (i == 0 || !phases[i-1].Barrier) {
			b.WriteString("| ")
		}
		fmt.Fprintf(&b, "%s=%s", ph.Phase, ph.Dur)
	}
	return b.String()
}

// Report renders a one-line human-readable summary.
func (s ServeStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generation=%d packets=%d swaps=%d blocked=%d epoch_violations=%d",
		s.Generation, s.Packets, s.Swaps, s.SwapsBlocked, s.EpochViolations)
	if s.Swaps > 0 {
		fmt.Fprintf(&b, " carried=%d reset=%d last_pause=%s",
			s.CarriedVars, s.ResetVars, time.Duration(s.LastSwapPauseNs))
	}
	fmt.Fprintf(&b, " window=%d", s.WindowLen)
	return b.String()
}

// WriteServePrometheus renders the serving gauges and counters in the
// Prometheus text exposition format, alongside Snapshot.WritePrometheus
// output for the serving engine.
func (s ServeStats) WriteServePrometheus(w io.Writer, nf string) error {
	lbl := fmt.Sprintf("nf=%q", nf)
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	rows := []struct {
		name, help, typ string
		v               int64
	}{
		{"nfactor_serve_generation", "Epoch of the serving engine generation.", "gauge", int64(s.Generation)},
		{"nfactor_serve_packets_total", "Packets served across all generations.", "counter", s.Packets},
		{"nfactor_serve_swaps_total", "Applied engine generation swaps.", "counter", s.Swaps},
		{"nfactor_serve_swaps_blocked_total", "Swap requests refused by the equivalence gate.", "counter", s.SwapsBlocked},
		{"nfactor_serve_carried_vars_total", "State variables carried across swaps.", "counter", s.CarriedVars},
		{"nfactor_serve_reset_vars_total", "State variables reset across swaps.", "counter", s.ResetVars},
		{"nfactor_serve_epoch_violations_total", "Packets that broke per-packet generation consistency.", "counter", s.EpochViolations},
		{"nfactor_serve_last_swap_pause_ns", "Data-plane quiesce time of the most recent swap.", "gauge", s.LastSwapPauseNs},
		{"nfactor_serve_window_packets", "Live traffic window held for swap gating.", "gauge", s.WindowLen},
	}
	for _, r := range rows {
		if err := p("# HELP %s %s\n# TYPE %s %s\n%s{%s} %d\n", r.name, r.help, r.name, r.typ, r.name, lbl, r.v); err != nil {
			return err
		}
	}
	const phaseName = "nfactor_serve_swap_phase_seconds"
	if err := p("# HELP %s Duration of each phase of the most recent applied swap (prepare phases run off the serving goroutine).\n# TYPE %s gauge\n", phaseName, phaseName); err != nil {
		return err
	}
	for _, phase := range SwapPhaseNames {
		var d time.Duration
		for _, ph := range s.LastSwapPhases {
			if ph.Phase == phase {
				d = ph.Dur
			}
		}
		if err := p("%s{%s,phase=%q} %g\n", phaseName, lbl, phase, d.Seconds()); err != nil {
			return err
		}
	}
	return nil
}
