// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, regenerating the corresponding experiment and reporting its
// headline quantities as custom metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured numbers are recorded in EXPERIMENTS.md.
package blitzcoin

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"blitzcoin/internal/experiments"
	"blitzcoin/internal/scaling"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/workload"
)

// metric sanitizes a label for use as a benchmark metric unit (no spaces).
func metric(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "-"), " ", "_")
}

// benchDims are the mesh dimensions of the emulator sweeps (N = d*d up to
// 400, the paper's largest emulated SoC).
var benchDims = []int{4, 8, 12, 16, 20}

var bctx = context.Background()

// BenchmarkFig01_ScalabilityTrends regenerates the motivation plot:
// response-time laws against the activity-change interval Tw/N.
func BenchmarkFig01_ScalabilityTrends(b *testing.B) {
	var rows []experiments.Fig01Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig01([]float64{10, 100, 1000}, []float64{1, 5, 20})
	}
	supported := 0
	for _, r := range rows {
		if r.Supported {
			supported++
		}
	}
	b.ReportMetric(float64(supported), "supported-points")
}

// BenchmarkFig03_OneWayVsFourWay regenerates the exchange-technique
// comparison: cycles and packets to convergence at Err < 1.5.
func BenchmarkFig03_OneWayVsFourWay(b *testing.B) {
	var rows []experiments.ConvergenceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig03(bctx, benchDims, 5, 1)
	}
	for _, r := range rows {
		if r.D == 20 {
			b.ReportMetric(r.MeanCycles, metric(r.Label, "cycles@d20"))
			b.ReportMetric(r.MeanPackets, metric(r.Label, "packets@d20"))
		}
	}
}

// BenchmarkFig04_BCvsTokenSmart regenerates the BlitzCoin vs TokenSmart
// convergence comparison: BC scales with sqrt(N), TS with N.
func BenchmarkFig04_BCvsTokenSmart(b *testing.B) {
	var rows []experiments.Fig04Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig04(bctx, benchDims, 5, 1)
	}
	var bc20, ts20 float64
	for _, r := range rows {
		if r.D == 20 {
			if r.Label == "BC" {
				bc20 = r.MeanCycles
			} else {
				ts20 = r.MeanCycles
			}
		}
	}
	b.ReportMetric(bc20, "BC-cycles@d20")
	b.ReportMetric(ts20, "TS-cycles@d20")
	if bc20 > 0 {
		b.ReportMetric(ts20/bc20, "TS/BC-ratio@d20")
	}
}

// BenchmarkFig06_DynamicTiming regenerates the dynamic-timing ablation at
// Err < 1.0.
func BenchmarkFig06_DynamicTiming(b *testing.B) {
	var rows []experiments.ConvergenceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig06(bctx, benchDims, 5, 1)
	}
	for _, r := range rows {
		if r.D == 20 {
			b.ReportMetric(r.MeanCycles, metric(r.Label, "cycles@d20"))
			b.ReportMetric(r.MeanPackets, metric(r.Label, "packets@d20"))
		}
	}
}

// BenchmarkFig07_RandomPairingError regenerates the residual-error
// histograms with and without random pairing for N = 100 and 400 through
// the registry, reading the mean worst error back from the row lines.
func BenchmarkFig07_RandomPairingError(b *testing.B) {
	var fig FigureResult
	for i := 0; i < b.N; i++ {
		fig, _ = RunFigure(bctx, FigureOptions{Name: "7", Ns: []int{100, 400}, Trials: 10}, nil)
	}
	for _, line := range fig.Lines {
		var n, trials int
		var pairing bool
		var meanWorst float64
		if _, err := fmt.Sscanf(line, "N=%d pairing=%t trials=%d worstErr(mean)=%f",
			&n, &pairing, &trials, &meanWorst); err != nil || n != 400 {
			continue
		}
		label := "nopair"
		if pairing {
			label = "pair"
		}
		b.ReportMetric(meanWorst, metric(label, "worstErr@N400"))
	}
}

// BenchmarkFig08_Heterogeneity regenerates the heterogeneity sweep:
// start_error and convergence time vs the number of accelerator types.
func BenchmarkFig08_Heterogeneity(b *testing.B) {
	var rows []experiments.ConvergenceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig08(bctx, []int{8, 16}, []int{1, 4, 8}, 5, 1)
	}
	for _, r := range rows {
		if r.D == 16 {
			b.ReportMetric(r.MeanCycles, metric(r.Label, "cycles@d16"))
			b.ReportMetric(r.MeanStartErr, metric(r.Label, "startErr@d16"))
		}
	}
}

// BenchmarkFig13_PowerCurves regenerates the accelerator characterization.
func BenchmarkFig13_PowerCurves(b *testing.B) {
	var pts []experiments.Fig13Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig13()
	}
	b.ReportMetric(float64(len(pts)), "operating-points")
}

// BenchmarkFig16_PowerTraces3x3 regenerates the 3x3 power-trace runs
// (WL-Par at 120 mW, WL-Dep at 60 mW) across BC, BC-C, and C-RR.
func BenchmarkFig16_PowerTraces3x3(b *testing.B) {
	var rows []experiments.SoCRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig16(bctx, 1)
	}
	for _, r := range rows {
		if r.BudgetMW == 120 {
			b.ReportMetric(r.Res.UtilizationPct(), metric(r.Scheme, "util@120mW"))
		}
	}
}

// BenchmarkFig17_Exec3x3 regenerates the 3x3 execution/response comparison.
func BenchmarkFig17_Exec3x3(b *testing.B) {
	var rows []experiments.SoCRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig17(bctx, 1)
	}
	report3SchemeRatios(b, rows, 120, "av-parallel-x3")
}

// BenchmarkFig18_Exec4x4 regenerates the 4x4 execution/response comparison.
func BenchmarkFig18_Exec4x4(b *testing.B) {
	var rows []experiments.SoCRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig18(bctx, 1)
	}
	report3SchemeRatios(b, rows, 450, "cv-parallel-x3")
}

// report3SchemeRatios extracts the BC-vs-baseline throughput and response
// ratios for one (budget, workload) cell.
func report3SchemeRatios(b *testing.B, rows []experiments.SoCRow, budget float64, wl string) {
	b.Helper()
	get := func(scheme string) *soc.Result {
		for _, r := range rows {
			if r.Scheme == scheme && r.BudgetMW == budget && r.Workload == wl {
				return &r.Res
			}
		}
		return nil
	}
	bc, bcc, crr := get("BC"), get("BC-C"), get("C-RR")
	if bc == nil || bcc == nil || crr == nil {
		b.Fatal("missing scheme rows")
	}
	b.ReportMetric(bc.ExecMicros(), "BC-exec-us")
	b.ReportMetric(100*(crr.ExecMicros()-bc.ExecMicros())/crr.ExecMicros(), "BC-vs-CRR-speedup-%")
	b.ReportMetric(100*(bcc.ExecMicros()-bc.ExecMicros())/bcc.ExecMicros(), "BC-vs-BCC-speedup-%")
	if bcm := bc.MeanResponseMicros(); bcm > 0 {
		b.ReportMetric(crr.MeanResponseMicros()/bcm, "resp-CRR/BC")
		b.ReportMetric(bcc.MeanResponseMicros()/bcm, "resp-BCC/BC")
	}
}

// BenchmarkFig19_SiliconProxy regenerates the silicon utilization and
// throughput-vs-static measurements on the 6x6 PM cluster.
func BenchmarkFig19_SiliconProxy(b *testing.B) {
	var rows []experiments.SiliconRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig19(bctx, 200, 1)
	}
	for _, r := range rows {
		if r.Accelerators == 7 {
			b.ReportMetric(r.UtilizationPct, "util-7acc-%")
			b.ReportMetric(r.ThroughputGainPct, "gain-vs-static-7acc-%")
		}
	}
}

// BenchmarkFig20_ResponseTransition regenerates the activity-transition
// response comparison on the 6x6 prototype.
func BenchmarkFig20_ResponseTransition(b *testing.B) {
	var rows []experiments.Fig20Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig20(bctx, 200, 1)
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanResponseUs, metric(r.Scheme, "resp-us"))
	}
}

// BenchmarkFig21_NMax fits the scaling models from measured responses and
// projects maximum supported SoC sizes.
func BenchmarkFig21_NMax(b *testing.B) {
	var models map[string]scaling.Model
	for i := 0; i < b.N; i++ {
		models = experiments.FitScalingModels(bctx, 1)
	}
	bc, okBC := models["BC"]
	crr, okCRR := models["C-RR"]
	if !okBC || !okCRR {
		b.Fatal("fit missing schemes")
	}
	b.ReportMetric(bc.Tau, "tauBC-us")
	b.ReportMetric(bc.NMax(7000), "BC-Nmax@7ms")
	b.ReportMetric(bc.NMax(7000)/crr.NMax(7000), "Nmax-BC/CRR@7ms")
}

// BenchmarkFig21_PMOverhead projects the PM-time fraction at Tw = 10 ms.
func BenchmarkFig21_PMOverhead(b *testing.B) {
	models := scaling.PaperModels()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = models["BC"].OverheadFraction(100, 10000)
	}
	b.ReportMetric(100*frac, "BC-overhead-%@N100")
	b.ReportMetric(100*models["C-RR"].OverheadFraction(100, 10000), "CRR-overhead-%@N100")
}

// BenchmarkTable1_Comparison regenerates the cross-design comparison.
func BenchmarkTable1_Comparison(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(bctx, 1)
	}
	for _, r := range rows {
		b.ReportMetric(r.ResponseUs, metric(r.Reference, "resp-us@N13"))
	}
}

// BenchmarkTableAPvsRP regenerates the allocation-strategy comparison of
// Sec. VI-A.
func BenchmarkTableAPvsRP(b *testing.B) {
	var rows []experiments.APvsRPRow
	for i := 0; i < b.N; i++ {
		rows = experiments.APvsRP(bctx, []float64{60, 120}, 1)
	}
	for _, r := range rows {
		if r.BudgetMW == 60 {
			b.ReportMetric(r.RPImprovementPct, "RP-gain-%@60mW")
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationPairingPeriod sweeps the random-pairing cadence around
// the paper's choice of one random pairing every 16 exchanges.
func BenchmarkAblationPairingPeriod(b *testing.B) {
	var out map[int]float64
	for i := 0; i < b.N; i++ {
		out = map[int]float64{}
		for _, every := range []int{4, 16, 64} {
			var sum float64
			const trials = 5
			for s := uint64(0); s < trials; s++ {
				res := SimulateExchange(ExchangeOptions{
					Dim: 10, Torus: true, RandomPairing: true,
					RandomPairingEvery: every,
					Init:               InitHotspot, Seed: 500 + s,
				})
				sum += float64(res.ConvergenceCycles) / trials
			}
			out[every] = sum
		}
	}
	b.ReportMetric(out[4], "cycles@every4")
	b.ReportMetric(out[16], "cycles@every16")
	b.ReportMetric(out[64], "cycles@every64")
}

// BenchmarkAblationWrapAround compares torus wrap-around neighbors against
// an open mesh (Sec. III-D, Fig. 5).
func BenchmarkAblationWrapAround(b *testing.B) {
	var torus, open float64
	for i := 0; i < b.N; i++ {
		torus, open = 0, 0
		const trials = 5
		for s := uint64(0); s < trials; s++ {
			rt := SimulateExchange(ExchangeOptions{
				Dim: 12, Torus: true, RandomPairing: true, Init: InitHotspot, Seed: 100 + s,
			})
			ro := SimulateExchange(ExchangeOptions{
				Dim: 12, Torus: false, RandomPairing: true, Init: InitHotspot, Seed: 100 + s,
			})
			torus += float64(rt.ConvergenceCycles) / trials
			open += float64(ro.ConvergenceCycles) / trials
		}
	}
	b.ReportMetric(torus, "torus-cycles@d12")
	b.ReportMetric(open, "open-cycles@d12")
}

// BenchmarkAblationCoinBits compares the effect of the per-tile target
// granularity (the 6-bit / 64-level choice of Sec. IV-A vs coarse 2-5
// level schemes of prior art) on the residual allocation error.
func BenchmarkAblationCoinBits(b *testing.B) {
	var fine, coarse float64
	for i := 0; i < b.N; i++ {
		rf := SimulateExchange(ExchangeOptions{
			Dim: 8, Torus: true, RandomPairing: true, TargetPerTile: 63,
			Init: InitRandom, Seed: 9,
		})
		rc := SimulateExchange(ExchangeOptions{
			Dim: 8, Torus: true, RandomPairing: true, TargetPerTile: 4,
			Init: InitRandom, Seed: 9,
		})
		// Residual error relative to the target scale: fine-grained coins
		// resolve allocations far more precisely.
		fine = rf.FinalErr / 63
		coarse = rc.FinalErr / 4
	}
	b.ReportMetric(100*fine, "relative-err-%@64levels")
	b.ReportMetric(100*coarse, "relative-err-%@4levels")
}

// BenchmarkAblationThermalCap measures the cost of the hotspot guard
// (Sec. III-B): a feasible neighborhood cap versus no cap.
func BenchmarkAblationThermalCap(b *testing.B) {
	var free, capped float64
	for i := 0; i < b.N; i++ {
		rf := SimulateExchange(ExchangeOptions{
			Dim: 8, Torus: true, RandomPairing: true, Init: InitHotspot,
			TargetPerTile: 16, CoinsPerTile: 8, Seed: 77,
		})
		rc := SimulateExchange(ExchangeOptions{
			Dim: 8, Torus: true, RandomPairing: true, Init: InitHotspot,
			TargetPerTile: 16, CoinsPerTile: 8, ThermalCap: 60, Seed: 77,
		})
		free = float64(rf.ConvergenceCycles)
		capped = float64(rc.ConvergenceCycles)
	}
	b.ReportMetric(free, "cycles-uncapped")
	b.ReportMetric(capped, "cycles-thermal60")
}

// BenchmarkContentionRobustness measures convergence under competing
// plane-5 traffic.
func BenchmarkContentionRobustness(b *testing.B) {
	var rows []experiments.ContentionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ContentionStudy(bctx, 12, []int{0, 100}, 3, 1)
	}
	b.ReportMetric(rows[0].MeanCycles, "cycles-quiet")
	b.ReportMetric(rows[1].MeanCycles, "cycles-bg100")
}

// BenchmarkContentionRobustnessSaturated is the contention study where its
// cost lies: background register traffic near plane-5 saturation, where
// each trial routes about 809,000 messages. A d=10 torus at 250 messages
// per kcycle per tile converges in tens of thousands of cycles; a d=8
// torus either converges within a few thousand or not at all.
func BenchmarkContentionRobustnessSaturated(b *testing.B) {
	var rows []experiments.ContentionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.ContentionStudy(bctx, 10, []int{250}, 2, 1)
	}
	b.ReportMetric(rows[0].MeanCycles, "cycles-bg250")
	b.ReportMetric(rows[0].MeanPackets, "packets-bg250")
}

// BenchmarkNoPMOverhead measures BlitzCoin's intrusiveness against the
// ideal no-PM execution (the FFT No-PM comparison of Sec. VI-C).
func BenchmarkNoPMOverhead(b *testing.B) {
	var r experiments.NoPMRow
	for i := 0; i < b.N; i++ {
		r = experiments.NoPMOverhead(1)
	}
	b.ReportMetric(r.OverheadPct, "overhead-%")
}

// BenchmarkExchangeThroughput measures raw emulator performance: simulated
// NoC cycles per wall-clock second for a 400-tile SoC (useful when sizing
// larger studies).
func BenchmarkExchangeThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateExchange(ExchangeOptions{
			Dim: 20, Torus: true, RandomPairing: true, Init: InitHotspot,
			Seed: uint64(i),
		})
	}
}

// BenchmarkExchangeThroughput64x64 demonstrates the SoA core's headroom
// beyond the paper's largest emulated SoC: a 4096-tile hotspot exchange,
// an order of magnitude past the 400-tile sweeps. Not gated by benchcheck
// (no committed baseline predates it); it documents how far the emulator
// scales on one core.
func BenchmarkExchangeThroughput64x64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SimulateExchange(ExchangeOptions{
			Dim: 64, Torus: true, RandomPairing: true, Init: InitHotspot,
			Seed: uint64(i),
		})
	}
}

// BenchmarkSoCRunThroughput measures full-SoC simulation performance for
// one 3x3 workload run.
func BenchmarkSoCRunThroughput(b *testing.B) {
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 3)
	for i := 0; i < b.N; i++ {
		r := soc.New(soc.SoC3x3(120, soc.SchemeBC, uint64(i)))
		r.Run(g)
	}
}

// BenchmarkSoCRunCentralized measures the DMA-dominated SoC run: one 4x4
// frame, CV-parallel x3, under C-RR. The centralized controller puts no
// packets on the NoC, so the run's traffic is the DMA bursts bracketing
// its 39 tasks: 14,202 flits in 156 trains. Gated by benchcheck: it is the
// centralized schemes' SoC path (UVFR actuation, dispatch and the power
// total), which BenchmarkSoCRunThroughput's BlitzCoin run leaves to the
// coin exchange.
func BenchmarkSoCRunCentralized(b *testing.B) {
	g := workload.Repeat(workload.ComputerVisionParallel(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soc.New(soc.SoC4x4(450, soc.SchemeCRR, uint64(i))).Run(g)
	}
}
