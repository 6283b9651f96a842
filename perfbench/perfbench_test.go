package main

import (
	"encoding/json"
	"os"
	"testing"

	"nfactor"
)

// tinyParams shrink each workload so a self-test run takes a second.
func tinyParams(name string) params {
	switch name {
	case "fw-hot":
		return params{flows: 32, traceLen: 512, repPkts: 4096, segPkts: 1024, segSwaps: 1, setups: 1}
	case "chain-churn":
		return params{flows: 64, traceLen: 512, repPkts: 4096, segPkts: 1024, segSwaps: 1, setups: 1, prefix: 1024}
	default:
		return params{flows: 500, traceLen: 1024, segPkts: 1024, rate: 20000, swaps: 1, segSwaps: 1, setups: 1}
	}
}

func tinyConfig(t *testing.T, name string, traced bool) config {
	return config{workload: name, seed: 7, seconds: 0.3, traced: traced, out: t.TempDir(), p: tinyParams(name)}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestTinyRunsPrintEveryMetric runs each workload untraced and traced
// and requires exactly the declared metrics, each with its unit, a clean
// oracle and a result line with exactly the four contract keys.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			b, err := newBench(tinyConfig(t, name, traced))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := b.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d: %v", name, traced, res.Correct, res.Failed, res.Attempted, b.failures)
			}
			want := e2e
			if traced {
				want = layer
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", name, traced, m, got.Unit, unit)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[m]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", name, traced, m)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result line %s: want exactly correct, attempted, failed, metrics", name, line)
			}
		}
	}
}

// TestOracleCountsWrongVerdict corrupts one expected verdict and
// requires the run to count the served packets that hit it as failures.
func TestOracleCountsWrongVerdict(t *testing.T) {
	for _, name := range workloadNames {
		b, err := newBench(tinyConfig(t, name, false))
		if err != nil {
			t.Fatal(err)
		}
		w := &b.sink.oracle.want[0]
		if w.Dropped {
			w.Dropped, w.Sent, w.Ifaces = false, []nfactor.Packet{b.w.trace[0]}, []string{"nowhere"}
		} else {
			w.Dropped, w.Sent, w.Ifaces = true, nil, nil
		}
		res, err := b.run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < 1 || b.sink.wrong < 1 {
			t.Errorf("%s: corrupted oracle entry went unnoticed: correct=%v failed=%d wrong=%d", name, res.Correct, res.Failed, b.sink.wrong)
		}
	}
}

// TestHistQuantile checks the histogram against exact quantiles within
// its bucket resolution.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 37)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		exact := q * 100000 * 37
		if got := h.quantile(q); got < exact*0.99 || got > exact*1.01 {
			t.Errorf("q%.2f = %.0f, exact %.0f", q, got, exact)
		}
	}
}
