// Command perfbench is the repository's benchmark: it drives the serving
// daemon through its public calls on one of three in-process workloads
// and prints, as its last line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). See
// README.md in this directory for the workloads and the metrics.
//
//	go build -o perfbench . && ./perfbench --workload nat-swap --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

func main() {
	workload := flag.String("workload", "", "workload: fw-hot, chain-churn or nat-swap")
	seed := flag.Int64("seed", 1, "seed of the generated traffic")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's Chrome trace")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload %v --seed N --seconds S --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	if *traced == 1 {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%d | nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		*workload, *seed, *seconds, *traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	b, err := newBench(config{workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1,
		out: *out, p: fullParams(*workload), log: os.Stderr})
	var res *result
	if err == nil {
		res, err = b.run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
