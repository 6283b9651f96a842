package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nfactor"
	"nfactor/internal/core"
	"nfactor/internal/solver"
	"nfactor/internal/trace"
)

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // directory for the Chrome trace ("" writes none)
	p        params
	log      io.Writer
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// served counts what one server did, for comparison with its own
// instruments (Stats and the /metrics payload).
type served struct {
	emits   int64 // sink emits since the server was built
	applied int64
	blocked int64
	carried int64
}

// bench is the state of one run.
type bench struct {
	cfg  config
	w    *workload
	tr   *trace.Tracer // nil unless traced
	src  *source
	sink *sink

	srv  *nfactor.Server
	cand nfactor.ServeCandidate
	obs  bool // the measured server runs the obsrv collectors
	cnt  served
	live atomic.Pointer[nfactor.Server] // chain-churn: the server the scraper reads

	failed    int64
	failures  []string
	attempted int64

	setupS    []float64
	analyzeMs []float64
	hitRate   float64
	repNs     []float64 // closed loop: Run ns/pkt per measured rep
	repP50    []float64 // closed loop: latency quantiles per rep, us
	repP99    []float64
	repMs     []memDelta
	swapGaps  []float64 // ms, from the sink's emit timestamps
	swapPause []float64 // ms, SwapReport.Pause
	scrapeMs  []float64
	windowS   float64 // open loop: wall time of the measured window
	windowN   int64
	steady    memDelta // open loop: serving before the first swap
	srcCost   callCost // traced: harness Next/Emit own time in the window
	sinkCost  callCost

	e2e   map[string]metric
	layer map[string]metric
}

// memDelta is the allocation and GC activity over an interval.
type memDelta struct {
	pkts, mallocs, gcs int64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func deltaOf(a, b *runtime.MemStats, pkts int64) memDelta {
	return memDelta{pkts: pkts, mallocs: int64(b.Mallocs - a.Mallocs), gcs: int64(b.NumGC - a.NumGC)}
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) logf(format string, args ...any) {
	if b.cfg.log != nil {
		fmt.Fprintf(b.cfg.log, format+"\n", args...)
	}
}

// span opens a benchmark span; end() closes it. Nil-safe when untraced.
func (b *bench) span(name string, parent int64) (id int64, end func()) {
	sp := b.tr.Start("bench", name, parent)
	return sp.ID(), sp.End
}

// newBench generates the workload's packets and the oracle's expected
// verdicts.
func newBench(cfg config) (*bench, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.p)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, e2e: map[string]metric{}, layer: map[string]metric{}}
	if cfg.traced {
		b.tr = trace.New()
	}
	b.src = &source{w: w, instrument: cfg.traced}
	b.sink = &sink{src: b.src}
	b.obs = w.name == "chain-churn"
	if err := b.buildOracle(0); err != nil {
		return nil, err
	}
	return b, nil
}

// run executes the workload and returns the result line.
func (b *bench) run() (*result, error) {
	root, end := b.span("run:"+b.w.name, 0)
	if err := b.setup(root); err != nil {
		return nil, err
	}
	var err error
	if b.w.open {
		err = b.openLoop(root)
	} else {
		err = b.closedLoop(root)
	}
	if err != nil {
		b.fail("%v", err)
	}
	b.endOfWindow()
	if b.cfg.traced && err == nil {
		if err := b.layers(root); err != nil {
			return nil, err
		}
	}
	end()
	if b.cfg.traced && b.cfg.out != "" {
		if err := b.writeTrace(); err != nil {
			return nil, err
		}
	}
	return b.result(), nil
}

func (b *bench) buildOracle(parent int64) error {
	_, end := b.span("oracle", parent)
	defer end()
	var o *oracle
	var err error
	if b.w.churn {
		o, err = prefixOracle(b.w, b.w.p.prefix)
	} else {
		o, err = steadyOracle(b.w, 4096)
	}
	b.sink.oracle = o
	return err
}

// analyze synthesizes the workload's NF or chain: the set-up's first
// step, repeated for every re-synthesis a swap installs.
func (b *bench) analyze() (nfactor.ServeCandidate, float64, error) {
	if len(b.w.nfs) == 1 {
		res, err := nfactor.AnalyzeCorpus(b.w.nfs[0], nfactor.Options{})
		if err != nil {
			return nfactor.ServeCandidate{}, 0, err
		}
		return res.ServeCandidate(1), hitRate(res.SolverCacheStats()), nil
	}
	cache := solver.NewCache()
	stages, err := core.AnalyzeChain(b.w.nfs, core.Options{Cache: cache})
	if err != nil {
		return nfactor.ServeCandidate{}, 0, err
	}
	return nfactor.ServeCandidate{Stages: stages, Shards: 1}, hitRate(cache.Stats()), nil
}

func hitRate(s solver.CacheStats) float64 {
	hits := s.SatHits + s.SimpHits
	if all := hits + s.SatMisses + s.SimpMisses; all > 0 {
		return float64(hits) / float64(all)
	}
	return 0
}

// newServer builds a server around cand with the default ServeConfig
// (batch 64, window 1024, one shard) and the benchmark's source and sink.
func (b *bench) newServer(cand nfactor.ServeCandidate, obs bool) (*nfactor.Server, error) {
	cfg := nfactor.ServeConfig{Source: b.src, Sink: b.sink}
	if obs {
		cfg.Obs = &nfactor.ObsOptions{}
	}
	srv, err := nfactor.NewServer(cand, cfg)
	if err != nil {
		return nil, err
	}
	b.cnt = served{}
	b.sink.lastEpoch = 0
	b.live.Store(srv)
	return srv, nil
}

// warm serves the workload's warm-up packets closed loop.
func (b *bench) warm(srv *nfactor.Server) error {
	if len(b.w.warm) == 0 {
		return nil
	}
	b.src.armWarm()
	b.sink.warm = true
	before := b.sink.emits
	err := srv.Run()
	b.sink.warm = false
	b.cnt.emits += b.sink.emits - before
	return err
}

// setup synthesizes, builds the server and warms it, p.setups times;
// setup_s is the median. The last server is the one measured.
func (b *bench) setup(parent int64) error {
	for i := 0; i < b.w.p.setups; i++ {
		runtime.GC()
		id, end := b.span("setup", parent)
		t0 := now()
		_, endA := b.span("core.analyze", id)
		cand, hit, err := b.analyze()
		endA()
		if err != nil {
			return err
		}
		b.analyzeMs = append(b.analyzeMs, float64(now()-t0)/1e6)
		b.hitRate = hit
		_, endS := b.span("serve.new_server", id)
		srv, err := b.newServer(cand, b.obs)
		endS()
		if err != nil {
			return err
		}
		_, endW := b.span("serve.warm", id)
		err = b.warm(srv)
		endW()
		if err != nil {
			return err
		}
		b.setupS = append(b.setupS, float64(now()-t0)/1e9)
		end()
		b.srv, b.cand = srv, cand
	}
	return nil
}

// serveClosed serves packets [from, from+n) of the measured sequence as
// fast as srv pulls them and returns the Run time in ns/pkt.
func (b *bench) serveClosed(srv *nfactor.Server, from, n int64) (float64, error) {
	b.src.armClosed(from, n)
	b.sink.k = from
	before := b.sink.emits
	t0 := now()
	// Nothing is due before Run starts, so a swap at its first barrier
	// goes dark from here.
	b.sink.lastEmit = t0
	err := srv.Run()
	dt := now() - t0
	got := b.sink.emits - before
	b.cnt.emits += got
	b.attempted += got
	if err == nil && got != n {
		err = fmt.Errorf("served %d of %d packets", got, n)
	}
	return float64(dt) / float64(n), err
}

// closedLoop: timed reps of p.repPkts packets until the run's seconds
// are spent, with p.segSwaps swaps spread evenly over the window, each
// right after a rep (past the deadline, one after each further rep).
// Every swap meets the same state.
func (b *bench) closedLoop(parent int64) error {
	id, end := b.span("measure", parent)
	defer end()
	stopScrape := b.startScraper()
	defer stopScrape()
	start, window := now(), int64(b.cfg.seconds*1e9)
	swaps, done := b.w.p.segSwaps, 0
	for len(b.repNs) == 0 || now() < start+window || done < swaps {
		// Every rep runs on a fresh, warmed server, so every rep does the
		// same work, and one server's map layout does not set the run's
		// figure.
		srv, err := b.newServer(b.cand, b.obs)
		if err == nil {
			err = b.warm(srv)
		}
		if err != nil {
			return err
		}
		b.srv = srv
		runtime.GC()
		m0 := readMem()
		b.sink.latency.reset()
		_, endR := b.span("serve.rep", id)
		ns, err := b.serveClosed(b.srv, 0, b.w.p.repPkts)
		endR()
		m1 := readMem()
		if err != nil {
			return err
		}
		b.repNs = append(b.repNs, ns)
		b.repP50 = append(b.repP50, b.sink.latency.quantile(0.50)/1e3)
		b.repP99 = append(b.repP99, b.sink.latency.quantile(0.99)/1e3)
		b.repMs = append(b.repMs, deltaOf(&m0, &m1, b.w.p.repPkts))
		if t := now() - start; done < swaps && (t >= window || t >= int64(done+1)*window/int64(swaps+1)) {
			if err := b.swapOnce(id, b.w.p.repPkts); err != nil {
				return err
			}
			done++
		}
		b.checkInstruments(b.srv)
	}
	return nil
}

// swapSegment performs p.segSwaps swaps back to back, from packet from
// of the measured sequence on.
func (b *bench) swapSegment(parent int64, from int64) error {
	for i := 0; i < b.w.p.segSwaps; i++ {
		if err := b.swapOnce(parent, from); err != nil {
			return err
		}
		from += b.w.p.segPkts
	}
	return nil
}

// swapOnce swaps in an identical re-synthesis (both gates on) at the
// first barrier of a closed-loop Run of p.segPkts packets, after a forced
// GC so every swap starts from a collected heap. The sink stamps every
// emit of that Run, so the dark time across the swap comes from the
// benchmark's own clock.
func (b *bench) swapOnce(parent int64, from int64) error {
	id, end := b.span("swap.segment", parent)
	defer end()
	_, endA := b.span("core.reanalyze", id)
	cand, _, err := b.analyze()
	endA()
	if err != nil {
		return err
	}
	runtime.GC()
	ch := b.srv.RequestSwap(nfactor.SwapRequest{Candidate: cand})
	b.attempted++
	b.sink.stampAll = true
	_, err = b.serveClosed(b.srv, from, b.w.p.segPkts)
	b.sink.stampAll = false
	b.record(<-ch)
	return err
}

// record counts one swap report; a blocked swap is a failure.
func (b *bench) record(rep *nfactor.SwapReport) {
	if rep.Blocked {
		b.cnt.blocked++
		b.fail("swap blocked: %s", rep.Reason)
		return
	}
	b.cnt.applied++
	b.cnt.carried += int64(rep.Carried)
	b.swapPause = append(b.swapPause, float64(rep.Pause)/1e6)
}

// openLoop serves rate*seconds packets on schedule while a second
// goroutine re-synthesizes the NF and requests a gated swap at evenly
// spaced times: the SIGHUP path. More swaps follow in a closed-loop
// segment, so swap_pause_ms is a median over enough swaps without
// stalling more of the window.
func (b *bench) openLoop(parent int64) error {
	id, end := b.span("measure", parent)
	defer end()
	if err := b.openWindow(id); err != nil {
		return err
	}
	return b.swapSegment(id, b.windowN)
}

func (b *bench) openWindow(id int64) error {
	p := b.w.p
	n := int64(p.rate * b.cfg.seconds)
	runtime.GC()
	m0 := readMem()
	b.src.armOpen(0, n, p.rate)
	b.sink.k, b.sink.lastEmit = 0, 0
	start := b.src.start
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reports []*nfactor.SwapReport
	var swapErr error
	var steady memDelta
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= p.swaps; i++ {
			at := start + int64(float64(i)/float64(p.swaps+1)*b.cfg.seconds*1e9)
			if d := at - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if i == 1 {
				m1 := readMem()
				steady = deltaOf(&m0, &m1, b.srv.Stats().Packets-b.cnt.emits)
			}
			_, endS := b.span("swap.request", id)
			cand, _, err := b.analyze()
			if err != nil {
				swapErr = err
				endS()
				return
			}
			runtime.GC() // as in swapSegment: every swap starts from a collected heap
			select {
			case rep := <-b.srv.RequestSwap(nfactor.SwapRequest{Candidate: cand}):
				reports = append(reports, rep)
			case <-done:
				swapErr = fmt.Errorf("window ended before swap %d was served", i)
			}
			endS()
			if swapErr != nil {
				return
			}
		}
	}()
	before := b.sink.emits
	err := b.srv.Run()
	close(done)
	wg.Wait()
	b.windowS = float64(now()-start) / 1e9
	b.windowN = b.sink.emits - before
	b.cnt.emits += b.windowN
	b.attempted += b.windowN + int64(p.swaps)
	b.steady = steady
	for _, rep := range reports {
		b.record(rep)
	}
	if swapErr != nil {
		b.fail("%v", swapErr)
	}
	if err == nil && b.windowN != n {
		err = fmt.Errorf("served %d of %d packets", b.windowN, n)
	}
	return err
}

// startScraper runs the chain-churn scraper: a second goroutine that
// renders the live server's /metrics payload once a second.
func (b *bench) startScraper() (stop func()) {
	if !b.obs {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			t0 := now()
			if err := nfactor.WriteServeMetrics(io.Discard, b.live.Load(), b.w.name, nil); err != nil {
				continue
			}
			mu.Lock()
			b.scrapeMs = append(b.scrapeMs, float64(now()-t0)/1e6)
			mu.Unlock()
		}
	}()
	return func() { close(done); wg.Wait() }
}

// endOfWindow checks the server's own instruments against the
// benchmark's counts and takes the end-to-end figures, before any
// traced-run probe adds samples. Untraced, it then measures the live heap
// after dropping the benchmark's own tables.
func (b *bench) endOfWindow() {
	b.checkInstruments(b.srv)
	b.swapGaps = append(b.swapGaps, b.sink.gapsMs...)
	b.srcCost, b.sinkCost = b.src.cost, b.sink.cost
	// Per-packet Next/Emit timings enter the trace as counters, not as
	// one span per packet.
	b.tr.Counter("harness", map[string]int64{
		"next_timed": b.srcCost.n, "next_ns": b.srcCost.ns,
		"emit_timed": b.sinkCost.n, "emit_ns": b.sinkCost.ns,
		"emits": b.sink.emits, "checked": b.sink.checked,
	})
	if len(b.repNs) > 0 {
		// Closed loop: medians over the reps, each rep its own sample.
		b.e2e["throughput_pps"] = metric{1e9 / median(b.repNs), "1/s"}
		b.e2e["latency_p50_us"] = metric{median(b.repP50), "us"}
		b.e2e["latency_p99_us"] = metric{median(b.repP99), "us"}
	} else {
		b.e2e["throughput_pps"] = metric{float64(b.windowN) / b.windowS, "1/s"}
		b.e2e["latency_p50_us"] = metric{b.sink.latency.quantile(0.50) / 1e3, "us"}
		b.e2e["latency_p99_us"] = metric{b.sink.latency.quantile(0.99) / 1e3, "us"}
	}
	b.e2e["swap_pause_ms"] = metric{median(b.swapGaps), "ms"}
	b.e2e["setup_s"] = metric{median(b.setupS), "s"}
	b.put("serve.pull_wait_us_p99", b.sink.pullWait.quantile(0.99)/1e3, "us")
	b.put("serve.hold_us_p50", b.sink.hold.quantile(0.50)/1e3, "us")
	if b.cfg.traced {
		return // the traced run still needs its tables; it reports no heap
	}
	b.sink.oracle = nil
	runtime.GC()
	m := readMem()
	b.e2e["heap_live_mb"] = metric{float64(m.HeapAlloc) / (1 << 20), "MiB"}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result assembles the output line: the end-to-end metrics when
// untraced, the per-layer ones when traced.
func (b *bench) result() *result {
	b.failed += b.sink.wrong + b.sink.regress
	if b.sink.firstBad != "" {
		b.failures = append(b.failures, fmt.Sprintf("%d wrong verdicts, first: %s", b.sink.wrong, b.sink.firstBad))
	}
	if b.sink.regress > 0 {
		b.failures = append(b.failures, fmt.Sprintf("%d emits with an epoch older than the one before", b.sink.regress))
	}
	if b.sink.checked == 0 {
		b.fail("the oracle checked no packet")
	}
	for _, f := range b.failures {
		b.logf("FAIL: %s", f)
	}
	b.logf("%s seed=%d: swaps %.1f ms (SwapReport.Pause %.1f ms), reps %.0f ns/pkt, rep p99 %.0f us, set-ups %.4f s",
		b.w.name, b.cfg.seed, b.swapGaps, b.swapPause, b.repNs, b.repP99, b.setupS)
	for _, name := range sortedKeys(b.e2e) {
		b.logf("  %-34s %14.4f %s", name, b.e2e[name].Value, b.e2e[name].Unit)
	}
	metrics := b.e2e
	if b.cfg.traced {
		metrics = b.layer
		for _, name := range sortedKeys(b.layer) {
			b.logf("  %-34s %14.4f %s", name, b.layer[name].Value, b.layer[name].Unit)
		}
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a failed run lacks a sample; JSON has no NaN.
			b.fail("metric %s has no value", name)
			metrics[name] = metric{0, m.Unit}
		}
	}
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
