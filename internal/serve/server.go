package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nfactor/internal/netpkt"
	"nfactor/internal/obsrv"
	"nfactor/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// Source feeds packets; nil is invalid. Sink receives outcomes;
	// nil means Discard.
	Source Source
	Sink   Sink
	// BatchSize is the quiescence granularity: swaps apply only at
	// batch barriers, so a smaller batch bounds swap latency while a
	// larger one amortizes the per-barrier bookkeeping. Default 64.
	BatchSize int
	// WindowSize bounds the ring of recently served packets that gates
	// swaps. Default 1024.
	WindowSize int
	// OnSwap, when set, observes every swap decision (applied or
	// blocked) from the serving goroutine, before the requester's
	// channel is answered — except a candidate refused while preparing,
	// which RequestSwap answers at once and OnSwap sees at the next
	// barrier.
	OnSwap func(*SwapReport)
	// Obs, when set, enables the observability collectors (gap-hit
	// detection against NFL103 witnesses, verdict-mix/top-K drift, the
	// swap audit trail) — the state behind the obsrv HTTP endpoints.
	// The collectors rebuild at every generation install.
	Obs *obsrv.Options
}

// Server is the live serving loop: one goroutine (Run) pulls packets
// from the Source in batches, pushes every verdict to the Sink, and
// applies queued generation swaps at batch barriers — the quiescence
// point where no packet is in flight, so every packet observes exactly
// one generation (asserted per packet via the epoch stamp).
//
// RequestSwap, Stats and Snapshot may be called from other goroutines;
// everything else belongs to the serving goroutine.
type Server struct {
	cfg Config
	gen *Generation

	window []netpkt.Packet // ring of the last WindowSize served packets
	total  int64           // packets pushed into the ring

	swapCh    chan *swapTicket
	stopCh    chan struct{}
	inspectCh chan *inspectTicket
	running   atomic.Bool // serving loop active (InspectState routing)

	stats telemetry.ServeStats // serving-goroutine copy
	pub   atomic.Pointer[Published]

	// Observability collectors (nil when Config.Obs is unset). obs
	// belongs to the serving goroutine; swapLog is internally locked.
	obs     *obsrv.Collector
	swapLog *obsrv.SwapLog
	// Published obs/stage snapshots refresh at most every obsRefresh
	// of wall time, not every batch.
	pubObs    *obsrv.Snapshot
	pubStages []telemetry.Snapshot
	pubObsAt  time.Time

	lastEpoch uint64
}

// obsRefresh is how stale a published collector snapshot may get:
// scrapes want freshness on the order of seconds, the serve loop turns
// over batches in microseconds, and building the snapshot (sample
// rendering, sketch copies, per-stage telemetry) costs microseconds —
// amortizing it by wall time keeps the cost independent of packet rate.
const obsRefresh = 200 * time.Millisecond

// Published is the cross-goroutine observable state, republished after
// every batch: the serving stats plus the engine's own telemetry.
// Stages and Obs carry the per-stage telemetry and the collector
// snapshot when observability is enabled (refreshed every few batches).
type Published struct {
	Stats  telemetry.ServeStats
	Engine telemetry.Snapshot
	Stages []telemetry.Snapshot
	Obs    *obsrv.Snapshot
	// Name labels the serving generation (the candidate's display
	// name); republished with the stats so readers never touch the
	// live generation struct.
	Name string
}

// swapTicket is one queued swap. RequestSwap queues it first, then
// prepares the candidate; ready closes when preparation is done, and
// only then may the serving goroutine read the fields below it. A
// candidate refused while preparing is answered at once (refused) and
// stays queued only so the serving goroutine records it.
type swapTicket struct {
	req   SwapRequest
	ch    chan *SwapReport
	once  sync.Once
	ready chan struct{}

	gen     *Generation
	prepare time.Duration
	phases  []telemetry.SwapPhase
	refused *SwapReport
}

// answer sends the report once; later answers (a refusal racing a
// shutdown) are dropped.
func (t *swapTicket) answer(rep *SwapReport) { t.once.Do(func() { t.ch <- rep }) }

// prepared reports, without blocking, whether preparation is done.
func (t *swapTicket) prepared() bool {
	select {
	case <-t.ready:
		return true
	default:
		return false
	}
}

// New builds the initial generation (number 1, pristine state) and a
// server around it.
func New(c Candidate, cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: nil source")
	}
	if cfg.Sink == nil {
		cfg.Sink = Discard
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 1024
	}
	gen, _, err := prepare(c)
	if err != nil {
		return nil, err
	}
	gen.install(1)
	s := &Server{
		cfg:       cfg,
		gen:       gen,
		window:    make([]netpkt.Packet, 0, cfg.WindowSize),
		swapCh:    make(chan *swapTicket, 16),
		stopCh:    make(chan struct{}),
		inspectCh: make(chan *inspectTicket, 16),
		lastEpoch: gen.Num,
	}
	if cfg.Obs != nil {
		s.swapLog = obsrv.NewSwapLog(cfg.Obs.SwapLog)
		s.installCollector()
	}
	s.stats.Generation = gen.Num
	s.publish()
	return s, nil
}

// Generation returns the serving generation's number and name, as of
// the last published batch (reading the live generation struct would
// race the swap install on the serving goroutine).
func (s *Server) Generation() (uint64, string) {
	p := s.pub.Load()
	return p.Stats.Generation, p.Name
}

// RequestSwap queues a swap for the next eligible batch barrier,
// prepares the candidate on the caller's goroutine — normalize,
// classify, compile its plane and gate replica — and returns a channel
// that receives the report (buffered: the requester may drop it). The
// call blocks for the prepare phase while the old generation keeps
// serving; only the gates, the state hand-off and the epoch flip run at
// the barrier. A candidate that fails to prepare is answered Blocked at
// once. Requests are served FIFO; each gates against whatever
// generation is serving when it reaches its barrier. If the server
// stops (or the source drains) before the request becomes eligible, the
// report comes back Blocked with that reason.
func (s *Server) RequestSwap(req SwapRequest) <-chan *SwapReport {
	t := &swapTicket{req: req, ch: make(chan *SwapReport, 1), ready: make(chan struct{})}
	select {
	case s.swapCh <- t:
	default:
		t.answer(&SwapReport{Name: req.Candidate.name(), Blocked: true,
			Reason: "swap queue full", DivergencePacket: -1})
		return t.ch
	}
	start := time.Now()
	gen, phases, err := prepare(req.Candidate)
	t.gen, t.phases, t.prepare = gen, phases, time.Since(start)
	if err != nil {
		t.refused = &SwapReport{Name: req.Candidate.name(), Blocked: true, Reason: err.Error(),
			DivergencePacket: -1, Prepare: t.prepare, Phases: phases}
		t.answer(t.refused)
	}
	close(t.ready)
	return t.ch
}

// Stop makes Run return at the next batch barrier. Sources that block
// indefinitely (UDP) should also be closed to unblock the fill.
func (s *Server) Stop() {
	select {
	case <-s.stopCh:
	default:
		close(s.stopCh)
	}
}

// Stats returns the most recently published serving stats.
func (s *Server) Stats() telemetry.ServeStats { return s.pub.Load().Stats }

// Snapshot returns the serving engine's most recently published
// telemetry snapshot.
func (s *Server) Snapshot() telemetry.Snapshot { return s.pub.Load().Engine }

// Run serves until the source is exhausted or Stop is called. It
// returns a non-nil error only when the data plane itself fails (an
// evaluation error — a synthesis bug, not an operational condition) or
// the sink rejects a write.
func (s *Server) Run() error {
	var pending []*swapTicket
	s.running.Store(true)
	defer func() {
		for _, t := range pending {
			t.answer(&SwapReport{From: s.gen.Num, To: s.gen.Num, Name: t.req.Candidate.name(),
				Blocked: true, Reason: "server stopped before the swap point", DivergencePacket: -1})
		}
		// Answer inspection tickets that raced the shutdown, then let
		// future ones take the direct (quiesced) path.
		s.serviceInspect()
		// Force a final collector publish: the amortized refresh may lag
		// by up to obsRefresh, and a drained server must report exact
		// gap-hit and drift totals.
		if s.obs != nil {
			s.pubObs = nil
			s.publish()
		}
		s.running.Store(false)
	}()

	batch := make([]netpkt.Packet, 0, s.cfg.BatchSize)
	outs := make([]Outcome, s.cfg.BatchSize)
	for {
		// Barrier: no packet is in flight here. Apply every eligible
		// queued swap, FIFO, and answer state-inspection tickets on the
		// quiesced plane.
		pending = s.drainSwaps(pending)
		pending = s.applyEligible(pending)
		s.serviceInspect()

		select {
		case <-s.stopCh:
			return nil
		default:
		}

		batch = batch[:0]
		exhausted := false
		for len(batch) < s.cfg.BatchSize {
			var p netpkt.Packet
			ok, err := s.cfg.Source.Next(&p)
			if !ok {
				exhausted = true
				break
			}
			if err != nil {
				continue // malformed input, counted by the source
			}
			batch = append(batch, p)
		}
		if len(batch) > 0 {
			if err := s.serveBatch(batch, outs[:len(batch)]); err != nil {
				return err
			}
		}
		if exhausted {
			pending = s.drainSwaps(pending)
			pending = s.applyEligible(pending)
			return nil
		}
	}
}

// serveBatch runs one batch through the serving plane, asserts the
// per-packet consistency invariant on every output's epoch stamp,
// records the packets in the gating window and emits the outcomes.
func (s *Server) serveBatch(batch []netpkt.Packet, outs []Outcome) error {
	if err := s.gen.plane.processBatch(batch, outs); err != nil {
		return fmt.Errorf("serve: generation %d: %w", s.gen.Num, err)
	}
	for i := range batch {
		o := &outs[i]
		// Per-packet consistency: a batch straddles no swap, so every
		// stamp must be the serving generation's, and stamps never move
		// backwards across batches.
		if o.Epoch != s.gen.Num || o.Epoch < s.lastEpoch {
			s.stats.EpochViolations++
		}
		s.lastEpoch = o.Epoch
		s.pushWindow(&batch[i])
		s.stats.Packets++
		if s.obs != nil {
			s.obs.Observe(&batch[i], o.Verdict.Dropped, o.DefaultStage)
		}
		if err := s.cfg.Sink.Emit(s.stats.Packets, &batch[i], o); err != nil {
			return fmt.Errorf("serve: sink: %w", err)
		}
	}
	s.publish()
	return nil
}

// drainSwaps moves queued tickets into the pending list without
// blocking.
func (s *Server) drainSwaps(pending []*swapTicket) []*swapTicket {
	for {
		select {
		case t := <-s.swapCh:
			pending = append(pending, t)
		default:
			return pending
		}
	}
}

// applyEligible runs every pending swap whose packet threshold has been
// reached and whose candidate is prepared. Runs at the barrier, on the
// serving goroutine. A swap placed by AfterPackets lands at its
// barrier deterministically: if its preparation is still running, the
// barrier waits for it, and the wait counts as pause.
func (s *Server) applyEligible(pending []*swapTicket) []*swapTicket {
	rest := pending[:0]
	for _, t := range pending {
		start := time.Now()
		if !t.prepared() || t.refused == nil {
			if t.req.AfterPackets > s.stats.Packets || (t.req.AfterPackets == 0 && !t.prepared()) {
				rest = append(rest, t)
				continue
			}
			<-t.ready
		}
		var gen *Generation
		var rep *SwapReport
		if t.refused != nil {
			// Refused while preparing and already answered: record a
			// copy (the requester owns the original).
			cp := *t.refused
			cp.From, cp.To = s.gen.Num, s.gen.Num
			rep = &cp
		} else {
			gen, rep = swap(s.gen, t, s.windowCopy(), start)
		}
		if gen != nil {
			s.gen = gen
			s.stats.Generation = gen.Num
			s.stats.Swaps++
			s.stats.CarriedVars += int64(rep.Carried)
			s.stats.ResetVars += int64(rep.Reset)
			s.stats.LastSwapPauseNs = rep.Pause.Nanoseconds()
			s.stats.LastSwapPhases = rep.Phases
			// New model, new observers: gap matchers and the drift
			// baseline are generation properties.
			s.installCollector()
		} else {
			s.stats.SwapsBlocked++
		}
		if s.swapLog != nil {
			s.swapLog.Record(swapEventOf(rep, s.stats.Packets))
		}
		s.publish()
		if s.cfg.OnSwap != nil {
			s.cfg.OnSwap(rep)
		}
		t.answer(rep)
	}
	return rest
}

// pushWindow records one served packet in the gating ring.
func (s *Server) pushWindow(p *netpkt.Packet) {
	if len(s.window) < cap(s.window) {
		s.window = append(s.window, *p)
	} else {
		s.window[s.total%int64(cap(s.window))] = *p
	}
	s.total++
}

// windowCopy snapshots the ring in serving order (oldest first).
func (s *Server) windowCopy() []netpkt.Packet {
	n := int64(len(s.window))
	out := make([]netpkt.Packet, 0, n)
	if n < int64(cap(s.window)) {
		return append(out, s.window...)
	}
	at := s.total % n
	out = append(out, s.window[at:]...)
	return append(out, s.window[:at]...)
}

// publish republishes the observable state. The serve stats and merged
// engine snapshot refresh every batch; the collector snapshot and
// per-stage telemetry refresh at most every obsRefresh of wall time
// (snapshotting the collectors copies sample rings and sketch tops —
// microseconds of work, too much for every 64 packets). A nil pubObs
// (fresh install, forced final publish) refreshes immediately.
func (s *Server) publish() {
	st := s.stats
	st.WindowLen = int64(len(s.window))
	p := &Published{Stats: st, Engine: s.gen.plane.snapshot(), Name: s.gen.Name}
	if s.obs != nil {
		if now := time.Now(); s.pubObs == nil || now.Sub(s.pubObsAt) >= obsRefresh {
			s.pubObs = s.obs.Snapshot(s.gen.Num, s.gen.Name)
			s.pubStages = s.gen.plane.stageSnapshots()
			s.pubObsAt = now
		}
		p.Obs, p.Stages = s.pubObs, s.pubStages
	}
	s.pub.Store(p)
}
