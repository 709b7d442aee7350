package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/scaling"
)

// Small-parameter integration runs of every experiment, asserting the
// paper-shape properties the full-size runs exhibit.

var tctx = context.Background()

func TestFig03ShapesHold(t *testing.T) {
	rows := Fig03(tctx, []int{6, 12}, 5, 1)
	byLabel := map[string][]ConvergenceRow{}
	for _, r := range rows {
		byLabel[r.Label] = append(byLabel[r.Label], r)
	}
	for _, label := range []string{"1-way", "4-way"} {
		rs := byLabel[label]
		if len(rs) != 2 {
			t.Fatalf("%s rows = %d", label, len(rs))
		}
		for _, r := range rs {
			if r.Converged != r.Trials {
				t.Fatalf("%s d=%d: only %d/%d converged", label, r.D, r.Converged, r.Trials)
			}
		}
		// Convergence grows sub-linearly: 4x tiles, < 3.5x time.
		if ratio := rs[1].MeanCycles / rs[0].MeanCycles; ratio > 3.5 {
			t.Fatalf("%s: time ratio %.2f for 4x tiles", label, ratio)
		}
	}
	// 1-way needs fewer packets than 4-way at the same size.
	if byLabel["1-way"][1].MeanPackets >= byLabel["4-way"][1].MeanPackets {
		t.Fatal("1-way should use fewer packets than 4-way")
	}
}

func TestFig04TokenSmartScalesLinearly(t *testing.T) {
	rows := Fig04(tctx, []int{8, 16}, 5, 1)
	var bc, ts []Fig04Row
	for _, r := range rows {
		if r.Label == "BC" {
			bc = append(bc, r)
		} else {
			ts = append(ts, r)
		}
	}
	// TS time ratio for 4x tiles should approach 4 (linear in N); BC's
	// should stay near 2 (linear in d).
	tsRatio := ts[1].MeanCycles / ts[0].MeanCycles
	bcRatio := bc[1].MeanCycles / bc[0].MeanCycles
	if tsRatio < 2.5 {
		t.Fatalf("TS ratio %.2f, want near 4 (O(N))", tsRatio)
	}
	if bcRatio > tsRatio {
		t.Fatalf("BC (%.2f) should scale better than TS (%.2f)", bcRatio, tsRatio)
	}
	// And TS is slower in absolute terms at every size.
	for i := range bc {
		if bc[i].MeanCycles >= ts[i].MeanCycles {
			t.Fatalf("BC not faster than TS at d=%d", bc[i].D)
		}
	}
}

func TestFig06DynamicTimingWins(t *testing.T) {
	rows := Fig06(tctx, []int{12}, 10, 1)
	var conv, dyn ConvergenceRow
	for _, r := range rows {
		if strings.Contains(r.Label, "dynamic") {
			dyn = r
		} else {
			conv = r
		}
	}
	if dyn.MeanCycles >= conv.MeanCycles {
		t.Fatalf("dynamic timing slower: %v vs %v cycles", dyn.MeanCycles, conv.MeanCycles)
	}
	if dyn.MeanPackets >= conv.MeanPackets {
		t.Fatalf("dynamic timing chattier: %v vs %v packets", dyn.MeanPackets, conv.MeanPackets)
	}
}

func TestFig07RandomPairingEliminatesDeadlock(t *testing.T) {
	rows := fig07Rows([]int{100}, 10, 1)
	var with, without Fig07Row
	for _, r := range rows {
		if r.RandomPairing {
			with = r
		} else {
			without = r
		}
	}
	if with.MeanWorst >= 2 {
		t.Fatalf("with pairing, residual %.2f coins", with.MeanWorst)
	}
	if without.MeanWorst < 5*with.MeanWorst {
		t.Fatalf("without pairing should be much worse: %.2f vs %.2f",
			without.MeanWorst, with.MeanWorst)
	}
	if with.WithinOneCoin != with.Trials {
		t.Fatalf("with pairing only %d/%d within one coin", with.WithinOneCoin, with.Trials)
	}
}

func TestFig08HeterogeneityMonotone(t *testing.T) {
	rows := Fig08(tctx, []int{8}, []int{1, 8}, 5, 1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].MeanStartErr <= rows[0].MeanStartErr {
		t.Fatal("start error did not grow with heterogeneity")
	}
	if rows[1].MeanCycles <= rows[0].MeanCycles {
		t.Fatal("convergence did not lengthen with heterogeneity")
	}
}

func TestFig13CoversAllAccelerators(t *testing.T) {
	pts := Fig13()
	seen := map[string]int{}
	for _, p := range pts {
		seen[p.Accel]++
		if p.V <= 0 || p.FMHz <= 0 || p.PmW <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("accelerators covered = %v", seen)
	}
}

func TestFig16WritesTraces(t *testing.T) {
	rows := Fig16(tctx, 1)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 schemes x 2 scenarios)", len(rows))
	}
	runs := map[string]bool{}
	for _, r := range rows {
		var b bytes.Buffer
		if err := r.Res.Recorder.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(b.String(), "cycle,") {
			t.Fatalf("%s %s: malformed CSV", r.Scheme, r.Workload)
		}
		runs[fmt.Sprintf("%s/%.0f/%s", r.Scheme, r.BudgetMW, r.Workload)] = true
	}
	if len(runs) != 6 {
		t.Fatalf("distinct traced runs = %d", len(runs))
	}
}

// TestCSVTables pins the two renderers that reshape their rows: the
// column selection of ConvergenceCSV and the per-scheme pivot of Fig21CSV.
func TestCSVTables(t *testing.T) {
	var b bytes.Buffer
	conv := []ConvergenceRow{{Label: "1-way", D: 4, N: 16, MeanCycles: 1234.5, MeanStartErr: 0.25}}
	if err := ConvergenceCSV(conv, "variant", "cycles_mean", "start_error").Write(&b); err != nil {
		t.Fatal(err)
	}
	if want := "variant,d,N,cycles_mean,start_error\n1-way,4,16,1234.5,0.25\n"; b.String() != want {
		t.Fatalf("convergence CSV = %q, want %q", b.String(), want)
	}

	models := scaling.PaperModels()
	tab := Fig21CSV(models, Fig21(models, []float64{0.2, 10}))
	if got, want := strings.Join(tab.Header, ","), "scheme,law,tau_us,nmax_0p2ms,nmax_10ms,"+
		"overhead_pct_n100_10ms,overhead_pct_n10_10ms,overhead_pct_n400_10ms,overhead_pct_n1000_10ms"; got != want {
		t.Fatalf("fig21 header = %s, want %s", got, want)
	}
	for _, rec := range tab.Records {
		m := models[rec[0]]
		if len(rec) != len(tab.Header) || rec[3] != ftoa(m.NMax(200)) || rec[4] != ftoa(m.NMax(10_000)) {
			t.Fatalf("fig21 record %v", rec)
		}
	}
}

func TestFig17BlitzCoinWinsEveryCell(t *testing.T) {
	rows := Fig17(tctx, 1)
	type key struct {
		budget float64
		wl     string
	}
	cells := map[key]map[string]SoCRow{}
	for _, r := range rows {
		k := key{r.BudgetMW, r.Workload}
		if cells[k] == nil {
			cells[k] = map[string]SoCRow{}
		}
		cells[k][r.Scheme] = r
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	for k, c := range cells {
		bc, crr := c["BC"], c["C-RR"]
		if bc.Res.ExecCycles >= crr.Res.ExecCycles {
			t.Fatalf("%v: BC %v not faster than C-RR %v", k,
				bc.Res.ExecMicros(), crr.Res.ExecMicros())
		}
		if bc.Res.MeanResponseMicros() >= c["BC-C"].Res.MeanResponseMicros() {
			t.Fatalf("%v: BC response not fastest", k)
		}
	}
}

func TestFig19UtilizationAndGains(t *testing.T) {
	rows := Fig19(tctx, 200, 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputGainPct <= 0 {
			t.Fatalf("%d-acc: BC not faster than static (%.1f%%)",
				r.Accelerators, r.ThroughputGainPct)
		}
	}
	// The concurrent 7-accelerator phase uses most of the budget.
	if rows[0].UtilizationPct < 70 {
		t.Fatalf("7-acc utilization %.1f%%, want high", rows[0].UtilizationPct)
	}
}

func TestFig20OrderingHolds(t *testing.T) {
	rows := Fig20(tctx, 200, 1)
	byScheme := map[string]Fig20Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	bc := byScheme["BC"].MeanResponseUs
	if bc <= 0 {
		t.Fatal("BC recorded no responses")
	}
	if bc >= byScheme["BC-C"].MeanResponseUs || bc >= byScheme["C-RR"].MeanResponseUs {
		t.Fatalf("BC (%.2fus) not fastest: %+v", bc, rows)
	}
}

func TestFig21FitMatchesPaperShape(t *testing.T) {
	models := FitScalingModels(tctx, 1)
	bc, ok := models["BC"]
	if !ok {
		t.Fatal("BC not fitted")
	}
	// tau_BC within a factor of ~3 of the paper's 0.20 us.
	if bc.Tau < 0.06 || bc.Tau > 0.7 {
		t.Fatalf("tau_BC = %.3f us, want near 0.20", bc.Tau)
	}
	// BC supports several times more accelerators than the centralized
	// schemes at Tw = 7 ms.
	for _, name := range []string{"BC-C", "C-RR"} {
		m, ok := models[name]
		if !ok {
			t.Fatalf("%s not fitted", name)
		}
		if ratio := bc.NMax(7000) / m.NMax(7000); ratio < 3 {
			t.Fatalf("BC/%s Nmax ratio %.1f, want >> 1", name, ratio)
		}
	}
}

func TestFig01SupportBoundary(t *testing.T) {
	rows := Fig01([]float64{10, 1000}, []float64{20})
	for _, r := range rows {
		// Support must match the definition T(N) < Tw/N exactly.
		want := r.ResponseUs < r.IntervalUs
		if r.Supported != want {
			t.Fatalf("inconsistent support flag: %+v", r)
		}
	}
}

func TestTable1RowsComplete(t *testing.T) {
	rows := Table1(tctx, 1)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	var bcResp float64
	for _, r := range rows {
		if r.ResponseUs <= 0 {
			t.Fatalf("%s: no response measured", r.Reference)
		}
		if r.Reference == "BC" {
			bcResp = r.ResponseUs
		}
		if len(r.String()) == 0 {
			t.Fatal("empty row render")
		}
	}
	for _, r := range rows {
		if r.Reference != "BC" && r.ResponseUs <= bcResp {
			t.Fatalf("%s response %.2f not slower than BC %.2f",
				r.Reference, r.ResponseUs, bcResp)
		}
	}
}

func TestAPvsRPDirection(t *testing.T) {
	rows := APvsRP(tctx, []float64{60, 120}, 1)
	for _, r := range rows {
		if r.RPImprovementPct <= 0 {
			t.Fatalf("RP not better at %v mW: %+v", r.BudgetMW, r)
		}
	}
}

func TestFig19CoinsConvergeWithinOneCoin(t *testing.T) {
	rows := Fig19Coins(200, 1)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 active tiles", len(rows))
	}
	for _, r := range rows {
		if r.Residual >= 1.5 {
			t.Fatalf("tile %d residual %.2f coins, want < 1.5", r.Tile, r.Residual)
		}
		if r.After == r.Before && r.Residual > 1 {
			t.Fatalf("tile %d never moved", r.Tile)
		}
	}
}

func TestNoPMOverheadSmall(t *testing.T) {
	r := NoPMOverhead(1)
	// Paper: < 2% difference between PM and No-PM tiles. Our PM machinery
	// adds actuation settling at task start; allow a slightly wider band.
	if r.OverheadPct < 0 || r.OverheadPct > 8 {
		t.Fatalf("PM overhead %.2f%%, want small: %+v", r.OverheadPct, r)
	}
}

func TestContentionGracefulDegradation(t *testing.T) {
	// Rates below NoC saturation; the figure also sweeps the saturated
	// regime, where convergence slows by orders of magnitude but still
	// completes.
	rows := ContentionStudy(tctx, 8, []int{0, 30, 100}, 3, 1)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Converged != r.Trials {
			t.Fatalf("bg=%d: only %d/%d converged", r.BackgroundPktPerKCycle, r.Converged, r.Trials)
		}
	}
	// Heavy background traffic may slow convergence but not by orders of
	// magnitude.
	if rows[2].MeanCycles > rows[0].MeanCycles*10 {
		t.Fatalf("contention collapse: %v -> %v cycles", rows[0].MeanCycles, rows[2].MeanCycles)
	}
}

func TestSnakeIndexAdjacency(t *testing.T) {
	m := mesh.Square(4, false)
	for pos := 1; pos < 16; pos++ {
		a, b := snakeIndex(m, pos-1), snakeIndex(m, pos)
		if m.HopDistance(a, b) != 1 {
			t.Fatalf("snake positions %d,%d map to non-adjacent tiles %d,%d", pos-1, pos, a, b)
		}
	}
}

func TestFig20TraceTransition(t *testing.T) {
	rec, resp := Fig20Trace(200, 1)
	us := float64(resp) / 800
	// The paper measures 0.68 us for this exact transition on silicon;
	// our model lands within a factor of ~3.
	if us <= 0 || us > 2.5 {
		t.Fatalf("transition response %.2f us, want sub-microsecond scale", us)
	}
	// NVDLA relinquishes everything; survivors gain.
	nvdla := rec.Series("t00-NVDLA")
	if nvdla.Last() > 1 {
		t.Fatalf("NVDLA kept %.0f coins after its task ended", nvdla.Last())
	}
	first := nvdla.At(0)
	if first <= 0 {
		t.Fatal("NVDLA trace lacks the pre-transition allocation")
	}
	gained := 0
	for _, name := range rec.Names() {
		if name == "t00-NVDLA" {
			continue
		}
		s := rec.Series(name)
		if s.Last() > s.At(0) {
			gained++
		}
	}
	if gained < 4 {
		t.Fatalf("only %d tiles gained coins from the redistribution", gained)
	}
}
