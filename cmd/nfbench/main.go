// Command nfbench regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	nfbench [-exp table1|table2|figure1|figure6|accuracy|verification|dataplane|sharding|chain|telemetry|trace|obsrv|swap|all]
//	        [-nfs lb,balance,...] [-maxpaths 1024] [-trials 1000]
//	        [-shards 1,2,4,8] [-workers N] [-stats] [-out bench.json]
//
// -exp dataplane measures the compiled match-action engine against the
// reference interpreter on every NF (cross-validated by differential
// fuzzing first); -out additionally records the rows as JSON (the
// checked-in BENCH_dataplane.json is produced this way, via
// `make bench-dataplane`).
//
// -exp sharding measures aggregate throughput of the generalized
// sharded engine (every corpus NF, each -shards count) on a Zipf
// workload, after a closed-loop differential gate against the
// sequential engine; `make bench-sharding` records the rows as
// BENCH_sharding.json. Shard scaling only shows on a multi-core host —
// the machine block in the JSON records what the run had.
//
// -exp chain measures every corpus service chain three ways — fused
// ChainEngine vs a chain of standalone compiled engines with
// materialized hand-offs vs chained reference interpreters — after a
// closed-loop differential pass proved the fused engine equivalent;
// `make bench-chain` records the rows as BENCH_chain.json.
//
// -exp telemetry measures the per-packet cost of the always-on
// telemetry sink on the compiled engine (sink attached vs detached on
// the same warmed trace); `make bench-telemetry` records the rows as
// BENCH_telemetry.json.
//
// -exp trace measures the cost of synthesis-pipeline span tracing
// (whole-pipeline wall time, tracing on vs off, fresh solver cache per
// run); `make bench-trace` records the rows as BENCH_trace.json.
//
// -exp obsrv measures the serving loop's live-observability overhead
// (collectors off vs on vs on with a concurrent HTTP scraper hammering
// /metrics, /coverage, /swaps and /state); `make bench-obsrv` records
// the rows as BENCH_obsrv.json. The acceptance bar is <=5% overhead
// with the scraper attached.
//
// -exp swap measures the NAT hot swap at 1k, 50k and 200k flows: the
// barrier pause, the worst batch latency across the swap and the
// per-phase prepare and barrier times, read from the SwapReport; `make
// bench-swap` records the rows as BENCH_swap.json. The acceptance bar
// is a barrier pause flat in table size (within 2x across the rows).
//
// -exp verify measures symbolic network verification (reach/isolation/
// waypoint/loopfree invariants over branching topologies of corpus NF
// models) at 1 worker vs a pool, with solver-cache hit rates and a
// worker-invariance cross-check; `make bench-verify` records the rows
// as BENCH_verify.json.
//
// NF rows run concurrently under -workers (default GOMAXPROCS); results
// are identical at every worker count, but use -workers=1 when the
// per-row timing columns matter — concurrent rows contend for cores.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"nfactor/internal/experiments"
	"nfactor/internal/nfs"
	"nfactor/internal/perf"
	"nfactor/internal/solver"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1 | table2 | figure1 | figure6 | accuracy | verification | dataplane | sharding | chain | telemetry | trace | verify | obsrv | swap | all")
	nfsFlag := flag.String("nfs", "", "comma-separated NF subset (default: whole corpus)")
	maxPaths := flag.Int("maxpaths", 1024, "path budget for original-program symbolic execution (the paper's snort run exceeded it)")
	trials := flag.Int("trials", 1000, "random packets per NF in the accuracy experiment")
	seed := flag.Int64("seed", 1, "trace generator seed")
	shards := flag.String("shards", "1,2,4,8", "shard counts for the sharding experiment")
	workers := flag.Int("workers", 0, "concurrent NF rows and SE workers (0 = GOMAXPROCS; use 1 for faithful per-row timings)")
	stats := flag.Bool("stats", false, "print aggregated performance counters and solver-cache hit rates")
	out := flag.String("out", "", "write the dataplane experiment's rows as JSON to this file")
	flag.Parse()

	names := nfs.Names()
	if *nfsFlag != "" {
		names = strings.Split(*nfsFlag, ",")
	}

	perfSet := perf.New()
	opts := experiments.Opts{
		Workers: *workers,
		Cache:   solver.NewCacheWithPerf(perfSet),
		Perf:    perfSet,
	}

	run := func(which string) bool { return *exp == "all" || *exp == which }

	if run("table1") {
		out, err := experiments.Table1()
		check(err)
		fmt.Println(out)
	}
	if run("table2") {
		rows, err := experiments.Table2(names, *maxPaths, opts)
		check(err)
		fmt.Println(experiments.FormatTable2(rows))
	}
	if run("figure1") {
		out, err := experiments.Figure1Slice()
		check(err)
		fmt.Println(out)
	}
	if run("figure6") {
		out, err := experiments.Figure6()
		check(err)
		fmt.Println("Figure 6: NFactor output for balance")
		fmt.Println(out)
	}
	if run("accuracy") {
		rows, err := experiments.Accuracy(names, *trials, *seed, opts)
		check(err)
		fmt.Println(experiments.FormatAccuracy(rows))
	}
	if run("verification") {
		rows, err := experiments.Verification(names, *maxPaths, opts)
		check(err)
		fmt.Println(experiments.FormatVerification(rows))
	}
	if run("dataplane") {
		rows, err := experiments.Dataplane(names, *trials, *seed, opts)
		check(err)
		fmt.Println(experiments.FormatDataplane(rows))
		if *out != "" {
			check(writeDataplaneJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("sharding") {
		counts, err := parseShards(*shards)
		check(err)
		rows, err := experiments.Sharding(names, *trials, *seed, counts, opts)
		check(err)
		fmt.Println(experiments.FormatSharding(rows))
		if *out != "" && *exp == "sharding" {
			check(writeShardingJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("chain") {
		rows, err := experiments.Chain(*trials, *seed, opts)
		check(err)
		fmt.Println(experiments.FormatChain(rows))
		if *out != "" && *exp == "chain" {
			check(writeChainJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("telemetry") {
		rows, err := experiments.Telemetry(names, *trials, *seed, opts)
		check(err)
		fmt.Println(experiments.FormatTelemetry(rows))
		if *out != "" && *exp == "telemetry" {
			check(writeTelemetryJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("trace") {
		rows, err := experiments.TraceOverhead(names, opts)
		check(err)
		fmt.Println(experiments.FormatTrace(rows))
		if *out != "" && *exp == "trace" {
			check(writeTraceJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("obsrv") {
		rows, err := experiments.Obsrv(names, *trials, *seed, 5)
		check(err)
		fmt.Println(experiments.FormatObsrv(rows))
		if *out != "" && *exp == "obsrv" {
			check(writeObsrvJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("swap") {
		rows, err := experiments.Swap([]int{1000, 50000, 200000}, 5)
		check(err)
		fmt.Println(experiments.FormatSwap(rows))
		if *out != "" && *exp == "swap" {
			check(writeSwapJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if run("verify") {
		rows, err := experiments.VerifyNet(opts)
		check(err)
		fmt.Println(experiments.FormatVerifyNet(rows))
		if *out != "" && *exp == "verify" {
			check(writeVerifyNetJSON(*out, rows))
			fmt.Println("wrote", *out)
		}
	}
	if *stats {
		fmt.Println("=== perf (aggregated across rows) ===")
		fmt.Print(opts.Perf.Report())
		cs := opts.Cache.Stats()
		fmt.Printf("solver cache: sat %d/%d hits (%.1f%%), simplify %d/%d hits\n",
			cs.SatHits, cs.SatHits+cs.SatMisses, 100*cs.SatHitRate(),
			cs.SimpHits, cs.SimpHits+cs.SimpMisses)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nfbench:", err)
		os.Exit(1)
	}
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeShardingJSON records the scaling rows plus machine context — the
// cores/gomaxprocs fields say whether shard counts above 1 could run in
// parallel at all.
func writeShardingJSON(path string, rows []experiments.ShardingRow) error {
	doc := struct {
		Description string                    `json:"description"`
		Machine     map[string]any            `json:"machine"`
		Rows        []experiments.ShardingRow `json:"rows"`
	}{
		Description: "Generalized sharded data plane (internal/dataplane.Sharded): aggregate " +
			"pkts/sec per shard count on a Zipf-skewed workload, per NF, measured only after a " +
			"closed-loop differential gate proved the sharded engine equivalent to the " +
			"sequential one (exact for flow-partitioned state, modulo allocator renaming and " +
			"per-flow rotor choice otherwise; see dataplane.Equiv). Speedup is relative to the " +
			"1-shard row. Shards are goroutines: scaling beyond 1x requires cores > 1 in the " +
			"machine block. Regenerate with `make bench-sharding`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeDataplaneJSON records the dataplane rows plus enough machine
// context to interpret them later.
func writeDataplaneJSON(path string, rows []experiments.DataplaneRow) error {
	doc := struct {
		Description string                     `json:"description"`
		Machine     map[string]any             `json:"machine"`
		Rows        []experiments.DataplaneRow `json:"rows"`
	}{
		Description: "Compiled data plane (internal/dataplane) vs the reference model.Instance " +
			"interpreter: amortized ns/packet over the same warmed trace, after a differential " +
			"fuzz pass over that trace confirmed identical outputs and end state. " +
			"Engine numbers are steady-state and allocation-free (see TestZeroAllocSteadyState). " +
			"Regenerate with `make bench-dataplane`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeChainJSON records the chain rows plus machine context,
// mirroring writeDataplaneJSON.
func writeChainJSON(path string, rows []experiments.ChainRow) error {
	doc := struct {
		Description string                 `json:"description"`
		Machine     map[string]any         `json:"machine"`
		Rows        []experiments.ChainRow `json:"rows"`
	}{
		Description: "Fused service-chain data plane (dataplane.CompileChain): one engine for a " +
			"whole NF chain — shared state arena, cross-stage short-circuiting and constant " +
			"folding, no intermediate packet materialization — vs a chain of standalone compiled " +
			"engines handing off materialized packets (how separate NF processes would run) vs " +
			"chained reference interpreters. Amortized ns/packet on the same warmed trace, " +
			"measured only after a closed-loop differential pass (dataplane.DiffTestChain) " +
			"proved the fused engine produces identical verdicts, emitted packets, per-stage " +
			"state and per-stage telemetry. Regenerate with `make bench-chain`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTraceJSON records the tracing-overhead rows plus machine context,
// mirroring writeDataplaneJSON.
func writeTraceJSON(path string, rows []experiments.TraceRow) error {
	doc := struct {
		Description string                 `json:"description"`
		Machine     map[string]any         `json:"machine"`
		Rows        []experiments.TraceRow `json:"rows"`
	}{
		Description: "Cost of synthesis-pipeline span tracing (internal/trace): full-pipeline " +
			"wall time per synthesis with tracing on (one span per Algorithm 1 phase, explored " +
			"state and refined entry) vs off, fresh solver cache per run. The disabled path is " +
			"strictly zero-cost — a nil tracer leaves only nil checks in the exploration loop " +
			"(see TestDisabledTracerSteppingIsAllocFree). Target: <5% overhead enabled. " +
			"Regenerate with `make bench-trace`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeVerifyNetJSON records the network-verification scaling rows.
func writeVerifyNetJSON(path string, rows []experiments.VerifyNetRow) error {
	doc := struct {
		Description string                     `json:"description"`
		Machine     map[string]any             `json:"machine"`
		Rows        []experiments.VerifyNetRow `json:"rows"`
	}{
		Description: "Network verification (internal/verify.SymNetwork): wall time to check " +
			"solver-proved invariants (reach, isolation, waypoint, loopfree) over branching " +
			"topologies of corpus NF models, at 1 worker vs a pool, each on a cold solver " +
			"cache. cache_hit_rate is the fraction of satisfiability decisions answered from " +
			"the memoizing cache in the 1-worker run; worker_invariant asserts the two runs " +
			"produced byte-identical reports. Regenerate with `make bench-verify`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeTelemetryJSON records the telemetry-overhead rows plus machine
// context, mirroring writeDataplaneJSON.
func writeObsrvJSON(path string, rows []experiments.ObsrvRow) error {
	doc := struct {
		Description string                 `json:"description"`
		Machine     map[string]any         `json:"machine"`
		Rows        []experiments.ObsrvRow `json:"rows"`
	}{
		Description: "Serving-loop observability overhead: amortized ns/packet through a live " +
			"serve.Server with the obsrv collectors off vs on (NFL103 gap-hit matchers, windowed " +
			"verdict-mix/top-K drift, snapshot publishing) vs on with a concurrent HTTP scraper " +
			"cycling /metrics, /coverage, /swaps and /state every 100ms — two orders of magnitude " +
			"hotter than a production Prometheus poll. 5 interleaved reps; ns/pkt columns are " +
			"per-column minima, overhead percentages are minima of per-rep paired ratios " +
			"(back-to-back runs, so machine-load drift divides out). The " +
			"acceptance bar is <=5% overhead with the scraper attached (ScrapePct). The packet " +
			"path stays allocation-free with collectors on (see TestObserveZeroAlloc). " +
			"Regenerate with `make bench-obsrv`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func writeTelemetryJSON(path string, rows []experiments.TelemetryRow) error {
	doc := struct {
		Description string                     `json:"description"`
		Machine     map[string]any             `json:"machine"`
		Rows        []experiments.TelemetryRow `json:"rows"`
	}{
		Description: "Per-packet cost of the always-on telemetry sink on the compiled engine: " +
			"amortized ns/packet over the same warmed trace with the sink attached (default " +
			"1-in-16 latency sampling) vs detached. The packet path stays allocation-free with " +
			"telemetry on (see TestTelemetryZeroAlloc). Regenerate with `make bench-telemetry`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// machine is the JSON machine block every BENCH_*.json records.
func machine() map[string]any {
	return map[string]any{
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

func writeSwapJSON(path string, rows []experiments.SwapRow) error {
	doc := struct {
		Description string                `json:"description"`
		Machine     map[string]any        `json:"machine"`
		Rows        []experiments.SwapRow `json:"rows"`
	}{
		Description: "Two-phase hot swap of a serving NAT for an independently re-synthesized " +
			"identical NAT (both gates on, 1024-packet gating window), at 1k, 50k and 200k warmed " +
			"flows. PauseMs is the barrier pause (SwapReport.Pause: window gates, state hand-off " +
			"by ownership, audit, epoch flip), WorstBatchMs the largest gap between consecutive " +
			"emits across the swap, PrepareMs the prepare phase run on the requester's goroutine " +
			"(normalize, classify, compile); PhaseMs times every phase. Medians of 5 reps, each on " +
			"a fresh server. The acceptance bar is a barrier pause flat in table size (within 2x " +
			"across the rows). Regenerate with `make bench-swap`.",
		Machine: machine(),
		Rows:    rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
