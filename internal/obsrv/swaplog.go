package obsrv

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"nfactor/internal/dataplane"
	"nfactor/internal/telemetry"
)

// SwapEvent is one generation-swap decision, structured for the /swaps
// audit trail. It mirrors serve.SwapReport (obsrv cannot import serve)
// plus when it happened and how much traffic had been served.
type SwapEvent struct {
	// Seq numbers events 1.. since the server started; the ring may
	// have dropped older ones.
	Seq           int64     `json:"seq"`
	Time          time.Time `json:"time"`
	PacketsServed int64     `json:"packets_served"`

	From    uint64 `json:"from"`
	To      uint64 `json:"to"`
	Name    string `json:"name"`
	Blocked bool   `json:"blocked"`
	Reason  string `json:"reason,omitempty"`
	// GuardDiff names the first guard whose outcome differed when the
	// gate blocked the swap (empty when not guard-attributable).
	GuardDiff        string `json:"guard_diff,omitempty"`
	DivergencePacket int    `json:"divergence_packet"`
	WindowLen        int    `json:"window_len"`

	EntriesAdded   int `json:"entries_added"`
	EntriesRemoved int `json:"entries_removed"`

	// Decisions is the per-variable carry-over audit.
	Decisions []dataplane.CarryDecision `json:"decisions,omitempty"`
	Carried   int                       `json:"carried"`
	Reset     int                       `json:"reset"`

	// PauseNs is the barrier pause; PrepareNs the off-path prepare
	// time; Phases times each protocol phase (see
	// telemetry.SwapPhaseNames).
	PauseNs   int64                 `json:"pause_ns"`
	PrepareNs int64                 `json:"prepare_ns"`
	Phases    []telemetry.SwapPhase `json:"phases,omitempty"`
}

// Render formats one event the way the serve loop's stderr report does,
// prefixed with the audit metadata.
func (e *SwapEvent) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%d] %s after %d packets: ", e.Seq, e.Time.Format(time.RFC3339), e.PacketsServed)
	if e.Blocked {
		fmt.Fprintf(&b, "swap to %q BLOCKED (generation %d keeps serving): %s\n", e.Name, e.From, e.Reason)
		if e.GuardDiff != "" {
			fmt.Fprintf(&b, "  diverging guard: %s\n", e.GuardDiff)
		}
		fmt.Fprintf(&b, "  gated over %d live packets\n", e.WindowLen)
		return b.String()
	}
	fmt.Fprintf(&b, "swapped generation %d -> %d (%q): %s barrier pause, prepared in %s off the data path\n",
		e.From, e.To, e.Name, time.Duration(e.PauseNs), time.Duration(e.PrepareNs))
	fmt.Fprintf(&b, "  phases: %s\n", telemetry.RenderSwapPhases(e.Phases))
	fmt.Fprintf(&b, "  entry table: +%d -%d; gated over %d live packets\n", e.EntriesAdded, e.EntriesRemoved, e.WindowLen)
	fmt.Fprintf(&b, "  state carry-over: %d carried, %d reset\n", e.Carried, e.Reset)
	for _, d := range e.Decisions {
		verb := "reset"
		if d.Carried {
			verb = "carried"
		}
		fmt.Fprintf(&b, "    %-7s %s: %s\n", verb, d.Var, d.Reason)
	}
	return b.String()
}

// SwapLog is a bounded ring of swap events. Record runs on the serving
// goroutine at the swap barrier; Events may be called from any
// goroutine — a mutex is fine here, swaps are control-plane rare.
type SwapLog struct {
	mu   sync.Mutex
	ring []SwapEvent
	seq  int64
}

// NewSwapLog bounds the ring at n events (n <= 0: 64).
func NewSwapLog(n int) *SwapLog {
	if n <= 0 {
		n = 64
	}
	return &SwapLog{ring: make([]SwapEvent, 0, n)}
}

// Record appends an event, assigning its sequence number and evicting
// the oldest once full.
func (l *SwapLog) Record(e SwapEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(l.ring) == 0 {
		l.ring = make([]SwapEvent, 0, 64) // zero-value log: default bound
	}
	l.seq++
	e.Seq = l.seq
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
		return
	}
	copy(l.ring, l.ring[1:])
	l.ring[len(l.ring)-1] = e
}

// Events returns the retained events, oldest first.
func (l *SwapLog) Events() []SwapEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SwapEvent, len(l.ring))
	copy(out, l.ring)
	return out
}
