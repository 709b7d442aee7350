package experiments

import (
	"context"
	"fmt"

	"blitzcoin/internal/controller"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/power"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/scaling"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/workload"
)

// tokenSmartConvergence measures TokenSmart's time to redistribute tokens
// after every tile of a dxd mesh posts a random demand at cycle 0 — the
// TS side of Fig. 4. The per-visit cost is set low (20 cycles) so the
// comparison isolates the sequential-ring structure rather than firmware
// constants.
func tokenSmartConvergence(d int, seed uint64) sim.Cycles {
	k := &sim.Kernel{}
	m := mesh.Square(d, true)
	net := noc.New(k, m, noc.DefaultConfig())
	src := rng.New(seed)
	specs := make([]controller.TileSpec, m.N())
	for i := range specs {
		specs[i] = controller.TileSpec{Tile: snakeIndex(m, i), PMaxMW: 100, PMinMW: 5}
	}
	ts := controller.NewTokenSmart(k, net, specs, float64(m.N())*30,
		controller.TSConfig{VisitProcCycles: 20, TotalTokens: int64(m.N()) * 16})
	ts.Start()
	for _, s := range specs {
		ts.SetTarget(s.Tile, 10+float64(src.Intn(90)))
	}
	k.RunUntil(func() bool { return ts.LastResponseCycles() != 0 }, 0)
	return ts.LastResponseCycles()
}

// snakeIndex maps a linear ring position to a mesh index following a
// boustrophedon path, so consecutive ring neighbors are mesh-adjacent.
func snakeIndex(m mesh.Mesh, pos int) int {
	row := pos / m.W
	col := pos % m.W
	if row%2 == 1 {
		col = m.W - 1 - col
	}
	return row*m.W + col
}

// SoCRow is one (scheme, budget, workload) measurement of Figs. 17/18.
type SoCRow struct {
	SoC      string
	Scheme   string
	BudgetMW float64
	Workload string
	Res      soc.Result
}

// String renders the row.
func (r SoCRow) String() string {
	return fmt.Sprintf("%-10s %-6s %5.0fmW %-16s exec=%9.1fus resp(mean)=%7.2fus util=%5.1f%%",
		r.SoC, r.Scheme, r.BudgetMW, r.Workload,
		r.Res.ExecMicros(), r.Res.MeanResponseMicros(), r.Res.UtilizationPct())
}

// evalSchemes runs one workload across schemes at one budget. The schemes
// fan out across the sweep pool: every run owns a private kernel/network/RNG
// and the workload graph is read-only, so the runs are independent and the
// returned rows keep the schemes' order.
func evalSchemes(ctx context.Context, mk func(s soc.Scheme) soc.Config, g *workload.Graph, schemes []soc.Scheme) []SoCRow {
	return sweep.Map(ctx, len(schemes), 0, func(i int) SoCRow {
		cfg := mk(schemes[i])
		res := soc.New(cfg).Run(g)
		return SoCRow{
			SoC: cfg.Name, Scheme: res.Scheme, BudgetMW: cfg.BudgetMW,
			Workload: g.Name, Res: res,
		}
	})
}

// repeat3 lengthens a workload to several frames so that steady-state
// behavior, not startup, dominates — as in the artifact's ~2500 us runs.
func repeat3(g *workload.Graph) *workload.Graph { return workload.Repeat(g, 3) }

// Fig17 reproduces the 3x3 SoC evaluation: execution time and response
// time for WL-Par and WL-Dep at 120 and 60 mW (30% and 15% of combined
// power), across BC, BC-C, and C-RR.
func Fig17(ctx context.Context, seed uint64) []SoCRow {
	schemes := []soc.Scheme{soc.SchemeBC, soc.SchemeBCC, soc.SchemeCRR}
	var rows []SoCRow
	for _, budget := range []float64{120, 60} {
		budget := budget
		mk := func(s soc.Scheme) soc.Config { return soc.SoC3x3(budget, s, seed) }
		rows = append(rows, evalSchemes(ctx, mk, repeat3(workload.AutonomousVehicleParallel()), schemes)...)
		rows = append(rows, evalSchemes(ctx, mk, repeat3(workload.AutonomousVehicleDependent()), schemes)...)
	}
	return rows
}

// Fig18 reproduces the 4x4 SoC evaluation: WL-Par at 450 and 900 mW (33%
// and 66% of combined power) and WL-Dep at 450 mW.
func Fig18(ctx context.Context, seed uint64) []SoCRow {
	schemes := []soc.Scheme{soc.SchemeBC, soc.SchemeBCC, soc.SchemeCRR}
	var rows []SoCRow
	for _, budget := range []float64{450, 900} {
		budget := budget
		mk := func(s soc.Scheme) soc.Config { return soc.SoC4x4(budget, s, seed) }
		rows = append(rows, evalSchemes(ctx, mk, repeat3(workload.ComputerVisionParallel()), schemes)...)
	}
	mk := func(s soc.Scheme) soc.Config { return soc.SoC4x4(450, s, seed) }
	rows = append(rows, evalSchemes(ctx, mk, repeat3(workload.ComputerVisionDependent()), schemes)...)
	return rows
}

// APvsRPRow compares allocation strategies (Sec. VI-A).
type APvsRPRow struct {
	BudgetMW           float64
	APExecUs, RPExecUs float64
	RPImprovementPct   float64
}

// String renders the row.
func (r APvsRPRow) String() string {
	return fmt.Sprintf("budget=%3.0fmW AP=%9.1fus RP=%9.1fus RP-gain=%.1f%%",
		r.BudgetMW, r.APExecUs, r.RPExecUs, r.RPImprovementPct)
}

// APvsRP measures the throughput advantage of the Relative Proportional
// allocation over Absolute Proportional on the 3x3 SoC (paper: 3.0-4.1%
// for budgets from 60 to 120 mW).
func APvsRP(ctx context.Context, budgets []float64, seed uint64) []APvsRPRow {
	g := repeat3(workload.AutonomousVehicleParallel())
	// Fan out over (budget, strategy) pairs so the AP and RP runs of one
	// budget also overlap, then pair them back up in order.
	execUs := sweep.Map(ctx, 2*len(budgets), 0, func(i int) float64 {
		cfg := soc.SoC3x3(budgets[i/2], soc.SchemeBC, seed)
		cfg.Strategy = soc.AbsoluteProportional
		if i%2 == 1 {
			cfg.Strategy = soc.RelativeProportional
		}
		return soc.New(cfg).Run(g).ExecMicros()
	})
	var rows []APvsRPRow
	for i, b := range budgets {
		ap, rp := execUs[2*i], execUs[2*i+1]
		rows = append(rows, APvsRPRow{
			BudgetMW:         b,
			APExecUs:         ap,
			RPExecUs:         rp,
			RPImprovementPct: 100 * (ap - rp) / ap,
		})
	}
	return rows
}

// Fig16 runs the power-trace experiments of the 3x3 SoC (WL-Par at 120 mW,
// WL-Dep at 60 mW) for BC, BC-C, and C-RR. Each row's Res.Recorder holds
// the run's per-tile power traces.
func Fig16(ctx context.Context, seed uint64) []SoCRow {
	schemes := []soc.Scheme{soc.SchemeBC, soc.SchemeBCC, soc.SchemeCRR}
	runs := []struct {
		budget float64
		g      *workload.Graph
	}{
		{120, repeat3(workload.AutonomousVehicleParallel())},
		{60, repeat3(workload.AutonomousVehicleDependent())},
	}
	// Fan the (run, scheme) grid out in one sweep; rows keep grid order.
	return sweep.Map(ctx, len(runs)*len(schemes), 0, func(i int) SoCRow {
		rn, s := runs[i/len(schemes)], schemes[i%len(schemes)]
		cfg := soc.SoC3x3(rn.budget, s, seed)
		res := soc.New(cfg).Run(rn.g)
		return SoCRow{SoC: cfg.Name, Scheme: res.Scheme,
			BudgetMW: rn.budget, Workload: rn.g.Name, Res: res}
	})
}

// SiliconRow is one silicon-proxy measurement (Fig. 19).
type SiliconRow struct {
	Accelerators      int
	Scheme            string
	ExecUs            float64
	UtilizationPct    float64
	ThroughputGainPct float64 // vs static allocation
	MeanResponseUs    float64
}

// String renders the row.
func (r SiliconRow) String() string {
	return fmt.Sprintf("%d-acc %-6s exec=%9.1fus util=%5.1f%% gain-vs-static=%5.1f%% resp=%.2fus",
		r.Accelerators, r.Scheme, r.ExecUs, r.UtilizationPct, r.ThroughputGainPct, r.MeanResponseUs)
}

// Fig19 reproduces the silicon measurements on the 6x6 prototype's PM
// cluster: budget utilization and throughput improvement over static
// allocation for the 7, 5, 4, and 3-accelerator workloads (paper: 27%, 26%,
// 26%, 19% with 97% utilization).
func Fig19(ctx context.Context, budgetMW float64, seed uint64) []SiliconRow {
	sizes := []int{7, 5, 4, 3}
	// Fan out over (size, scheme) pairs — even index BC, odd index the
	// static baseline of the same size — then pair them back up in order.
	results := sweep.Map(ctx, 2*len(sizes), 0, func(i int) soc.Result {
		n := sizes[i/2]
		var g *workload.Graph
		if n == 7 {
			// The utilization/throughput phase is measured while all
			// seven accelerators run concurrently.
			g = workload.SevenAcceleratorParallel()
		} else {
			g = workload.SiliconSubset(n)
		}
		g = workload.Repeat(g, 3)
		scheme := soc.SchemeBC
		if i%2 == 1 {
			scheme = soc.SchemeStatic
		}
		return soc.New(soc.SoC6x6(budgetMW, scheme, seed)).Run(g)
	})
	var rows []SiliconRow
	for i, n := range sizes {
		bc, st := results[2*i], results[2*i+1]
		rows = append(rows, SiliconRow{
			Accelerators:      n,
			Scheme:            "BC",
			ExecUs:            bc.ExecMicros(),
			UtilizationPct:    bc.UtilizationPct(),
			ThroughputGainPct: 100 * (st.ExecMicros() - bc.ExecMicros()) / st.ExecMicros(),
			MeanResponseUs:    bc.MeanResponseMicros(),
		})
	}
	return rows
}

// Fig20Row is one scheme's response to the end-of-NVDLA activity
// transition (Fig. 20; paper: BC 0.68 us, BC-C 1.4 us, C-RR 15.3 us).
type Fig20Row struct {
	Scheme         string
	MeanResponseUs float64
	MaxResponseUs  float64
}

// String renders the row.
func (r Fig20Row) String() string {
	return fmt.Sprintf("%-6s resp(mean)=%6.2fus resp(max)=%6.2fus", r.Scheme, r.MeanResponseUs, r.MaxResponseUs)
}

// Fig20 measures the coin-exchange response on the 6x6 prototype for the
// 7-accelerator workload across BC, BC-C, and C-RR.
func Fig20(ctx context.Context, budgetMW float64, seed uint64) []Fig20Row {
	g := workload.Repeat(workload.SevenAcceleratorSilicon(), 2)
	schemes := []soc.Scheme{soc.SchemeBC, soc.SchemeBCC, soc.SchemeCRR}
	return sweep.Map(ctx, len(schemes), 0, func(i int) Fig20Row {
		res := soc.New(soc.SoC6x6(budgetMW, schemes[i], seed)).Run(g)
		return Fig20Row{
			Scheme:         res.Scheme,
			MeanResponseUs: res.MeanResponseMicros(),
			MaxResponseUs:  res.MaxResponseMicros(),
		}
	})
}

// FitScalingModels fits the response-time laws of Sec. V-E from measured
// SoC responses at N = 6 (3x3), N = 13 (4x4), and N = 7 (6x6 PM cluster),
// mirroring how the paper derives tau_BC, tau_BCC, tau_CRR (Sec. VI-D).
func FitScalingModels(ctx context.Context, seed uint64) map[string]scaling.Model {
	schemes := []soc.Scheme{soc.SchemeBC, soc.SchemeBCC, soc.SchemeCRR, soc.SchemeTS, soc.SchemePT}
	sizes := []float64{6, 13, 7}
	// The full (scheme, SoC) measurement grid fans out in one sweep; the
	// point lists then accumulate serially in grid order, matching the
	// nested loops.
	type fitResult struct {
		scheme string
		n      float64
		respUs float64
	}
	results := sweep.Map(ctx, len(schemes)*len(sizes), 0, func(i int) fitResult {
		s := schemes[i/len(sizes)]
		var cfg soc.Config
		var g *workload.Graph
		switch i % len(sizes) {
		case 0:
			cfg, g = soc.SoC3x3(120, s, seed), repeat3(workload.AutonomousVehicleParallel())
		case 1:
			cfg, g = soc.SoC4x4(450, s, seed), repeat3(workload.ComputerVisionParallel())
		default:
			cfg, g = soc.SoC6x6(200, s, seed), workload.Repeat(workload.SevenAcceleratorSilicon(), 2)
		}
		res := soc.New(cfg).Run(g)
		return fitResult{scheme: res.Scheme, n: sizes[i%len(sizes)], respUs: res.MeanResponseMicros()}
	})
	points := map[string][]scaling.Point{}
	for _, r := range results {
		if r.respUs > 0 {
			points[r.scheme] = append(points[r.scheme], scaling.Point{N: r.n, Response: r.respUs})
		}
	}
	out := map[string]scaling.Model{}
	laws := map[string]scaling.Law{
		"BC": scaling.Sqrt, "BC-C": scaling.Linear, "C-RR": scaling.Linear,
		"TS": scaling.Linear, "PT": scaling.Sqrt,
	}
	for name, pts := range points {
		out[name] = scaling.Fit(name, laws[name], pts)
	}
	return out
}

// Fig21Row is one (scheme, Tw) projection.
type Fig21Row struct {
	Scheme      string
	TwMs        float64
	NMax        float64
	OverheadPct float64 // at N=100, Tw=10ms when TwMs == 10
}

// Fig21 projects maximum supported SoC sizes (left) and PM-overhead
// fractions at Tw = 10 ms (right) for the fitted models.
func Fig21(models map[string]scaling.Model, twsMs []float64) []Fig21Row {
	var rows []Fig21Row
	for _, tw := range twsMs {
		for _, name := range []string{"BC", "BC-C", "C-RR", "TS", "PT"} {
			m, ok := models[name]
			if !ok {
				continue
			}
			rows = append(rows, Fig21Row{
				Scheme:      name,
				TwMs:        tw,
				NMax:        m.NMax(tw * 1000),
				OverheadPct: 100 * m.OverheadFraction(100, 10_000),
			})
		}
	}
	return rows
}

// Fig13Point dumps one accelerator operating point for the
// characterization plot.
type Fig13Point struct {
	Accel string
	V     float64
	FMHz  float64
	PmW   float64
}

// Fig13 returns every accelerator's characterized operating points.
func Fig13() []Fig13Point {
	var out []Fig13Point
	for _, name := range []string{"FFT", "Viterbi", "NVDLA", "GEMM", "Conv2D", "Vision"} {
		c := power.Catalog()[name]
		for _, p := range c.Points {
			out = append(out, Fig13Point{Accel: name, V: p.V, FMHz: p.FMHz, PmW: p.PmW})
		}
	}
	return out
}

// Fig01Row is one point of the motivation plot: response-time trends vs the
// activity-change interval.
type Fig01Row struct {
	Scheme     string
	N          float64
	ResponseUs float64
	TwMs       float64
	IntervalUs float64 // Tw/N
	Supported  bool
}

// Fig01 generates the scalability-motivation series of Fig. 1 for the
// software-centralized, hardware-centralized, and decentralized schemes.
func Fig01(ns []float64, twsMs []float64) []Fig01Row {
	models := scaling.PaperModels()
	var rows []Fig01Row
	for _, name := range []string{"SW", "BC-C", "BC"} {
		m := models[name]
		for _, n := range ns {
			for _, tw := range twsMs {
				rows = append(rows, Fig01Row{
					Scheme:     name,
					N:          n,
					ResponseUs: m.Response(n),
					TwMs:       tw,
					IntervalUs: scaling.PhaseInterval(tw*1000, n),
					Supported:  m.Supported(n, tw*1000),
				})
			}
		}
	}
	return rows
}
