package experiments

import (
	"strings"
	"testing"

	"nfactor/internal/telemetry"
)

func TestTable1Shape(t *testing.T) {
	out, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pktVar", "cfgVar", "oisVar", "logVar",
		"f2b_nat", "rr_idx", "pass_stat", "drop_stat", "mode",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	rows, err := Table2([]string{"snortlite", "balance"}, 256, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.NF] = r
	}

	snort := byName["snortlite"]
	// The paper's snort claims: slice ≪ orig in LoC, orig paths exceed
	// any budget, slice paths small, SE time collapses.
	if snort.LoCSlice*3 > snort.LoCOrig {
		t.Errorf("snortlite LoC reduction too small: %d -> %d", snort.LoCOrig, snort.LoCSlice)
	}
	if !snort.EPOrigCap {
		t.Error("snortlite original SE did not exhaust the budget")
	}
	if snort.EPSlice > 50 {
		t.Errorf("snortlite slice paths = %d", snort.EPSlice)
	}
	if snort.SETimeSlice*10 > snort.SETimeOrig {
		t.Errorf("snortlite SE time did not collapse: orig %v vs slice %v",
			snort.SETimeOrig, snort.SETimeSlice)
	}

	bal := byName["balance"]
	// Balance: moderate path reduction (paper: 20 → 10).
	if bal.EPSlice >= bal.EPOrig {
		t.Errorf("balance slice paths %d !< orig %d", bal.EPSlice, bal.EPOrig)
	}
	if bal.EPOrigCap {
		t.Error("balance should not exhaust the budget")
	}

	text := FormatTable2(rows)
	if !strings.Contains(text, ">255") {
		t.Errorf("budget-capped cell not rendered as a bound:\n%s", text)
	}
	if !strings.Contains(text, "balance") || !strings.Contains(text, "snortlite") {
		t.Errorf("missing rows:\n%s", text)
	}
}

func TestFigure6ShowsBothConfigs(t *testing.T) {
	out, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`config: (mode == "RR")`,
		`config: (mode != "RR")`,
		"rr_idx := ((rr_idx@0 + 1) % 2)",
		"servers[rr_idx@0]",
		"hash(pkt.sip)",
		"default: drop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 6 missing %q:\n%s", want, out)
		}
	}
	// The HASH table must not touch the round-robin index (the paper's
	// "there is no index state" cell).
	hashSection := out[strings.Index(out, `config: (mode != "RR")`):]
	hashSection = hashSection[:strings.Index(hashSection, "config: *")]
	if strings.Contains(hashSection, "rr_idx :=") {
		t.Errorf("HASH table updates rr_idx:\n%s", hashSection)
	}
}

func TestFigure1Slice(t *testing.T) {
	out, err := Figure1Slice()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "pass_stat") {
		t.Errorf("slice retains log statistics:\n%s", out)
	}
	if !strings.Contains(out, "f2b_nat") || !strings.Contains(out, "send(pkt") {
		t.Errorf("slice missing forwarding logic:\n%s", out)
	}
}

func TestAccuracyAllGreen(t *testing.T) {
	rows, err := Accuracy([]string{"lb", "nat"}, 200, 7, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.PathsEqual {
			t.Errorf("%s: path sets differ (%s)", r.NF, r.EquivDetail)
		}
		if r.Mismatches != 0 {
			t.Errorf("%s: %d mismatches (%s)", r.NF, r.Mismatches, r.FirstDiff)
		}
		if r.Trials != 200 {
			t.Errorf("%s: trials = %d", r.NF, r.Trials)
		}
	}
	text := FormatAccuracy(rows)
	if !strings.Contains(text, "yes") {
		t.Errorf("accuracy table:\n%s", text)
	}
}

func TestVerificationSnortliteWinsOnModel(t *testing.T) {
	rows, err := Verification([]string{"snortlite"}, 256, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if !r.OrigCapped {
		t.Error("snortlite original should cap the budget")
	}
	if r.ModelPaths >= 256 {
		t.Errorf("model paths = %d, should be far below the budget", r.ModelPaths)
	}
	text := FormatVerification(rows)
	if !strings.Contains(text, "snortlite") {
		t.Errorf("verification table:\n%s", text)
	}
}

func TestTable2UnknownNF(t *testing.T) {
	if _, err := Table2([]string{"doesnotexist"}, 64, Opts{}); err == nil {
		t.Error("unknown NF did not error")
	}
}

// TestSwapRows runs the swap experiment at a tiny size: every row
// carries the NAT's three variables and reports every phase.
func TestSwapRows(t *testing.T) {
	rows, err := Swap([]int{300, 600}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Carried != 3 || r.PauseMs <= 0 || r.WorstBatchMs < r.PauseMs {
			t.Errorf("row %+v", r)
		}
		for _, ph := range telemetry.SwapPhaseNames {
			if _, ok := r.PhaseMs[ph]; !ok {
				t.Errorf("%d flows: phase %s missing", r.Flows, ph)
			}
		}
	}
	if out := FormatSwap(rows); !strings.Contains(out, "gate_faithful") {
		t.Errorf("table lacks the phase columns:\n%s", out)
	}
}
