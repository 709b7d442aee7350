package blitzcoin

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"blitzcoin/internal/experiments"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/trace"
)

// FigureOptions selects one of the paper's figures or tables by registry
// name and overrides its sweep parameters. Every field except Name is
// optional; zero values take the figure's own defaults, so a bare
// {"name": "7"} reproduces the published plot. Each figure reads only the
// fields named for it below: Normalized zeroes the others, so a value in
// one of them changes neither the rows nor the canonical hash, and
// Validate does not check it.
type FigureOptions struct {
	// Name is the registry key: "1", "3", "4", "6", "7", "8", "13", "16",
	// "17", "18", "19", "20", "21", "ap-rp", "contention", "cpu-proxy",
	// "degraded", "faults", "nopm", "table1", "thermal-cap", "uvfr-droop".
	// FigureNames lists them.
	Name string `json:"name"`
	// Trials overrides the Monte Carlo trials per point of the sweeping
	// figures (3, 4, 6, 7, 8, contention, faults; default figure-specific).
	Trials int `json:"trials,omitempty"`
	// Seed is the base random seed. Default 1. Figs. 1 and 13, cpu-proxy
	// and uvfr-droop draw no random numbers; their seed is always 1.
	Seed uint64 `json:"seed,omitempty"`
	// Dims overrides the mesh-dimension sweep of the exchange figures (3,
	// 4, 6, 8) and of the fault study.
	Dims []int `json:"dims,omitempty"`
	// Ns overrides the tile counts of Fig. 7 / SoC sizes of Fig. 1.
	Ns []int `json:"ns,omitempty"`
	// AccelTypes overrides the heterogeneity sweep of Fig. 8.
	AccelTypes []int `json:"accel_types,omitempty"`
	// BudgetMW overrides the PM budget of the silicon figures (19, 20).
	BudgetMW float64 `json:"budget_mw,omitempty"`
	// BudgetsMW overrides the budget sweep of the AP-vs-RP study.
	BudgetsMW []float64 `json:"budgets_mw,omitempty"`
	// DropRates overrides the packet-loss sweep of the fault study.
	DropRates []float64 `json:"drop_rates,omitempty"`
	// BgRates overrides the background-traffic sweep of the contention
	// study (packets per 1000 cycles per tile).
	BgRates []int `json:"bg_rates,omitempty"`
	// Dim overrides the mesh dimension of the contention study.
	Dim int `json:"dim,omitempty"`
	// TwsMs overrides the workload phase durations of Figs. 1 and 21.
	TwsMs []float64 `json:"tws_ms,omitempty"`
}

// figureSpec is one registry entry: the heading, the figure's descriptor
// and the runner that renders the deterministic report lines and hands the
// same rows to out as CSV tables.
type figureSpec struct {
	title string
	// defaults is the descriptor: it sets every field the figure reads, at
	// its default value, and no other. Seed is 1 on the seeded figures.
	defaults FigureOptions
	run      func(ctx context.Context, o FigureOptions, out *figureCSV) []string
	// shard, when non-nil, is the figure: its Monte-Carlo work decomposed
	// into independent trial units, which RunFigure runs locally and a
	// cluster spreads over workers. Such a figure has no run.
	shard *figureShard
}

// lines runs the figure on o as given: a shardable figure as the merge of
// all its trial units.
func (s figureSpec) lines(ctx context.Context, o FigureOptions, out *figureCSV) ([]string, error) {
	if s.shard != nil {
		return s.shard.merge(o, s.shard.trials(ctx, o, 0, s.shard.units(o)), out)
	}
	return s.run(ctx, o, out), nil
}

// figureShard splits a figure along its flattened trial axis (point-major,
// trial order within a point). trial computes one global trial unit, may
// publish the unit's series points on st, and encodes its raw value; merge
// decodes the complete unit sequence, renders the report lines and writes
// the CSV tables. Both sides derive per-trial randomness from the unit
// index alone, so the lines are the same at any shard count.
type figureShard struct {
	units func(o FigureOptions) int
	trial func(st trace.Stream, o FigureOptions, g int) json.RawMessage
	merge func(o FigureOptions, trials []json.RawMessage, out *figureCSV) ([]string, error)
}

// trials computes the units [lo, hi) and publishes each unit's trial-start
// and trial-done on the context's stream: a worker's shard is a sub-range,
// the local run the whole axis.
func (s *figureShard) trials(ctx context.Context, o FigureOptions, lo, hi int) []json.RawMessage {
	st := trace.FromContext(ctx)
	units := s.units(o)
	return sweep.MapRange(ctx, lo, hi, 0, func(g int) json.RawMessage {
		st.TrialStart(g, units)
		raw := s.trial(st, o, g)
		st.TrialDone(g, units, true, 0)
		return raw
	})
}

// decodeTrials decodes the trial payloads of a shardable figure; what
// names it in the error. An empty payload is a unit that a cancelled local
// run never dispatched: it stays the zero value, as sweep.Map leaves it.
func decodeTrials[T any](what string, trials []json.RawMessage) ([]T, error) {
	vals := make([]T, len(trials))
	for i, b := range trials {
		if len(b) == 0 {
			continue
		}
		if err := json.Unmarshal(b, &vals[i]); err != nil {
			return nil, fmt.Errorf("blitzcoin: %s trial %d payload: %w", what, i, err)
		}
	}
	return vals, nil
}

// figureCSV is a runner's CSV output. sink opens one writer per file name;
// a nil sink or a nil writer skips the file. err keeps the first failure,
// after which nothing more is written.
type figureCSV struct {
	sink func(name string) io.Writer
	err  error
}

// write renders one file through render.
func (c *figureCSV) write(name string, render func(io.Writer) error) {
	if c.sink == nil || c.err != nil {
		return
	}
	if w := c.sink(name); w != nil {
		if err := render(w); err != nil {
			c.err = fmt.Errorf("blitzcoin: CSV %s: %w", name, err)
		}
	}
}

// mustJSON marshals a plain trial value; these are floats and flat structs,
// for which encoding cannot fail.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("blitzcoin: trial payload encoding failed: %v", err))
	}
	return b
}

// stringRows renders any row slice whose elements implement Stringer.
func stringRows[T fmt.Stringer](rows []T) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

var paperDims = []int{4, 8, 12, 16, 20}

// figureRegistry maps registry names to their specs. blitzctl run prints
// the same runners' lines, so a served figure equals the printed one.
var figureRegistry = map[string]figureSpec{
	"1": {
		title: "Fig. 1 — response time vs activity-change interval Tw/N",
		defaults: FigureOptions{Ns: []int{5, 10, 20, 50, 100, 200, 500, 1000},
			TwsMs: []float64{1, 5, 20}},
		run: func(_ context.Context, o FigureOptions, out *figureCSV) []string {
			ns := make([]float64, len(o.Ns))
			for i, n := range o.Ns {
				ns[i] = float64(n)
			}
			rows := experiments.Fig01(ns, o.TwsMs)
			out.write("fig01_scalability.csv", experiments.Fig01CSV(rows).Write)
			lines := []string{"scheme   N     T(N) us    Tw(ms)  Tw/N us  supported"}
			for _, r := range rows {
				lines = append(lines, fmt.Sprintf("%-6s %5.0f %9.2f %8.0f %9.2f  %v",
					r.Scheme, r.N, r.ResponseUs, r.TwMs, r.IntervalUs, r.Supported))
			}
			return lines
		},
	},
	"3": {
		title:    "Fig. 3 — 1-way vs 4-way: packets and cycles to convergence (Err < 1.5)",
		defaults: FigureOptions{Trials: 100, Seed: 1, Dims: paperDims},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig03(ctx, o.Dims, o.Trials, o.Seed)
			out.write("fig03_exchange_modes.csv",
				experiments.ConvergenceCSV(rows, "mode", "cycles_mean", "cycles_p95", "packets_mean").Write)
			return stringRows(rows)
		},
	},
	"4": {
		title:    "Fig. 4 — BlitzCoin vs TokenSmart convergence time",
		defaults: FigureOptions{Trials: 100, Seed: 1, Dims: paperDims},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig04(ctx, o.Dims, o.Trials, o.Seed)
			out.write("fig04_bc_vs_tokensmart.csv", experiments.Fig04CSV(rows).Write)
			return stringRows(rows)
		},
	},
	"6": {
		title:    "Fig. 6 — conventional vs dynamic-timing 1-way exchange (Err < 1.0)",
		defaults: FigureOptions{Trials: 100, Seed: 1, Dims: paperDims},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig06(ctx, o.Dims, o.Trials, o.Seed)
			out.write("fig06_dynamic_timing.csv",
				experiments.ConvergenceCSV(rows, "variant", "cycles_mean", "packets_mean").Write)
			return stringRows(rows)
		},
	},
	"7": {
		title:    "Fig. 7 — worst-case residual error with/without random pairing",
		defaults: FigureOptions{Trials: 1000, Seed: 1, Ns: []int{100, 400}},
		shard: &figureShard{
			units: func(o FigureOptions) int {
				return len(experiments.Fig07Points(o.Ns)) * o.Trials
			},
			trial: func(st trace.Stream, o FigureOptions, g int) json.RawMessage {
				p := experiments.Fig07Points(o.Ns)[g/o.Trials]
				w := experiments.Fig07Trial(p, g%o.Trials, o.Seed)
				st.Point("worst_tile_err", uint64(g), w)
				return mustJSON(w)
			},
			merge: func(o FigureOptions, trials []json.RawMessage, out *figureCSV) ([]string, error) {
				vals, err := decodeTrials[float64]("figure 7", trials)
				if err != nil {
					return nil, err
				}
				rows := experiments.Fig07Assemble(experiments.Fig07Points(o.Ns), o.Trials, vals)
				out.write("fig07_residual_error.csv", experiments.Fig07CSV(rows).Write)
				var lines []string
				for _, r := range rows {
					lines = append(lines, r.String())
					lines = append(lines, strings.Split(strings.TrimRight(r.Hist.String(), "\n"), "\n")...)
				}
				return lines, nil
			},
		},
	},
	"8": {
		title:    "Fig. 8 — convergence time vs heterogeneity (accType) and size",
		defaults: FigureOptions{Trials: 50, Seed: 1, Dims: paperDims, AccelTypes: []int{1, 2, 4, 8}},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig08(ctx, o.Dims, o.AccelTypes, o.Trials, o.Seed)
			out.write("fig08_heterogeneity.csv",
				experiments.ConvergenceCSV(rows, "acc_types", "cycles_mean", "start_error").Write)
			return stringRows(rows)
		},
	},
	"13": {
		title: "Fig. 13 — accelerator power/frequency characterization",
		run: func(_ context.Context, _ FigureOptions, out *figureCSV) []string {
			points := experiments.Fig13()
			out.write("fig13_power_curves.csv", experiments.Fig13CSV(points).Write)
			lines := []string{"accel   V      F(MHz)   P(mW)"}
			for _, p := range points {
				lines = append(lines, fmt.Sprintf("%-7s %.2f %8.1f %8.2f", p.Accel, p.V, p.FMHz, p.PmW))
			}
			return lines
		},
	},
	"16": {
		title:    "Fig. 16 — 3x3 power traces (WL-Par @120mW, WL-Dep @60mW)",
		defaults: FigureOptions{Seed: 1},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig16(ctx, o.Seed)
			out.write("fig16_soc3x3.csv", experiments.SoCCSV(rows).Write)
			for _, r := range rows {
				out.write(fmt.Sprintf("fig16_%s_%.0fmW_%s.csv", r.Scheme, r.BudgetMW, r.Workload),
					r.Res.Recorder.WriteCSV)
			}
			return stringRows(rows)
		},
	},
	"17": {
		title:    "Fig. 17 — 3x3 SoC: execution and response time, BC vs BC-C vs C-RR",
		defaults: FigureOptions{Seed: 1},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig17(ctx, o.Seed)
			out.write("fig17_soc3x3.csv", experiments.SoCCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"18": {
		title:    "Fig. 18 — 4x4 SoC: execution and response time, BC vs BC-C vs C-RR",
		defaults: FigureOptions{Seed: 1},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig18(ctx, o.Seed)
			out.write("fig18_soc4x4.csv", experiments.SoCCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"19": {
		title:    "Fig. 19 — silicon proxy: utilization and throughput vs static allocation",
		defaults: FigureOptions{Seed: 1, BudgetMW: 200},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig19(ctx, o.BudgetMW, o.Seed)
			coins := experiments.Fig19Coins(o.BudgetMW, o.Seed)
			out.write("fig19_silicon.csv", experiments.SiliconCSV(rows).Write)
			out.write("fig19_coin_allocation.csv", experiments.CoinSnapshotCSV(coins).Write)
			lines := append(stringRows(rows), "# Fig. 19 (bottom left) — coin allocation before/after convergence")
			return append(lines, stringRows(coins)...)
		},
	},
	"20": {
		title:    "Fig. 20 — response to activity transitions, 7-accelerator workload",
		defaults: FigureOptions{Seed: 1, BudgetMW: 200},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Fig20(ctx, o.BudgetMW, o.Seed)
			rec, resp := experiments.Fig20Trace(o.BudgetMW, o.Seed)
			out.write("fig20_response.csv", experiments.Fig20CSV(rows).Write)
			out.write("fig20_coin_trace.csv", rec.WriteCSV)
			lines := stringRows(rows)
			lines = append(lines, fmt.Sprintf("# coin counts across the end-of-NVDLA transition (response %.2f us)",
				float64(resp)/800))
			for _, name := range rec.Names() {
				lines = append(lines, fmt.Sprintf("  %-14s final=%2.0f coins", name, rec.Series(name).Last()))
			}
			return lines
		},
	},
	"21": {
		title:    "Fig. 21 — Nmax and PM-overhead projections from refitted models",
		defaults: FigureOptions{Seed: 1, TwsMs: []float64{0.2, 1, 7, 10}},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			models := experiments.FitScalingModels(ctx, o.Seed)
			rows := experiments.Fig21(models, o.TwsMs)
			out.write("fig21_scaling.csv", experiments.Fig21CSV(models, rows).Write)
			names := make([]string, 0, len(models))
			for n := range models {
				names = append(names, n)
			}
			sort.Strings(names)
			var lines []string
			for _, n := range names {
				m := models[n]
				lines = append(lines, fmt.Sprintf("%-5s %-11s tau=%.3f us", m.Name, m.Law, m.Tau))
			}
			for _, r := range rows {
				lines = append(lines, fmt.Sprintf("%-5s Tw=%5.1fms Nmax=%8.0f overhead@N=100,Tw=10ms=%5.1f%%",
					r.Scheme, r.TwMs, r.NMax, r.OverheadPct))
			}
			return lines
		},
	},
	"ap-rp": {
		title:    "Sec. VI-A — Absolute vs Relative Proportional allocation (3x3, BC)",
		defaults: FigureOptions{Seed: 1, BudgetsMW: []float64{60, 80, 100, 120}},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.APvsRP(ctx, o.BudgetsMW, o.Seed)
			out.write("ap_vs_rp.csv", experiments.APvsRPCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"contention": {
		title:    "Extension — convergence under background plane-5 traffic",
		defaults: FigureOptions{Trials: 10, Seed: 1, BgRates: []int{0, 20, 50, 100, 200}, Dim: 12},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.ContentionStudy(ctx, o.Dim, o.BgRates, o.Trials, o.Seed)
			out.write("contention.csv", experiments.ContentionCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"cpu-proxy": {
		title: "Sec. IV-C — CPU power proxy: activity counters set a CVA6 tile's coin target",
		run: func(_ context.Context, _ FigureOptions, out *figureCSV) []string {
			rows := experiments.CPUProxy()
			out.write("cpu_proxy.csv", experiments.CPUProxyCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"degraded": {
		title:    "Extension — degraded mode: 3x3 BC with 0..3 tiles killed mid-workload",
		defaults: FigureOptions{Seed: 1},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.DegradedSoC(ctx, o.Seed)
			out.write("degraded_soc.csv", experiments.DegradedCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"faults": {
		title: "Extension — hardened exchange under PM-plane packet loss",
		defaults: FigureOptions{Trials: 10, Seed: 1, Dims: []int{6, 10, 14},
			DropRates: []float64{0, 0.005, 0.01, 0.02, 0.05}},
		shard: &figureShard{
			units: func(o FigureOptions) int {
				return len(experiments.FaultPoints(o.Dims, o.DropRates)) * o.Trials
			},
			trial: func(_ trace.Stream, o FigureOptions, g int) json.RawMessage {
				p := experiments.FaultPoints(o.Dims, o.DropRates)[g/o.Trials]
				return mustJSON(experiments.FaultStudyTrial(p, g%o.Trials, o.Seed))
			},
			merge: func(o FigureOptions, trials []json.RawMessage, out *figureCSV) ([]string, error) {
				vals, err := decodeTrials[experiments.FaultTrial]("fault-study", trials)
				if err != nil {
					return nil, err
				}
				rows := experiments.FaultAssemble(experiments.FaultPoints(o.Dims, o.DropRates), o.Trials, vals)
				out.write("fault_study.csv", experiments.FaultCSV(rows).Write)
				return stringRows(rows), nil
			},
		},
	},
	"nopm": {
		title:    "Sec. VI-C — PM overhead: BlitzCoin vs the No-PM baseline tile",
		defaults: FigureOptions{Seed: 1},
		run: func(_ context.Context, o FigureOptions, out *figureCSV) []string {
			row := experiments.NoPMOverhead(o.Seed)
			out.write("nopm_overhead.csv", experiments.NoPMCSV(row).Write)
			return []string{row.String()}
		},
	},
	"table1": {
		title:    "Table I — implemented state-of-the-art designs (response measured at N=13)",
		defaults: FigureOptions{Seed: 1},
		run: func(ctx context.Context, o FigureOptions, out *figureCSV) []string {
			rows := experiments.Table1(ctx, o.Seed)
			out.write("table1_comparison.csv", experiments.Table1CSV(rows).Write)
			return stringRows(rows)
		},
	},
	"thermal-cap": {
		title:    "Sec. III-B — thermal hotspot guard: 8x8 hotspot exchange, uncapped vs a neighborhood coin cap",
		defaults: FigureOptions{Seed: 1},
		run: func(_ context.Context, o FigureOptions, out *figureCSV) []string {
			var rows []experiments.ThermalCapRow
			for _, c := range []int64{0, 60} {
				r := SimulateExchange(ExchangeOptions{Dim: 8, Torus: true, RandomPairing: true,
					Init: InitHotspot, TargetPerTile: 16, CoinsPerTile: 8, ThermalCap: c, Seed: o.Seed})
				rows = append(rows, experiments.ThermalCapRow{CapCoins: c, Converged: r.Converged,
					Cycles: r.ConvergenceCycles, Clamped: r.ThermalRejects, Conserved: r.CoinsConserved})
			}
			out.write("thermal_cap.csv", experiments.ThermalCapCSV(rows).Write)
			return stringRows(rows)
		},
	},
	"uvfr-droop": {
		title: "Fig. 9 — UVFR vs conventional dual-loop actuation under supply droop (700 MHz target)",
		run: func(_ context.Context, _ FigureOptions, out *figureCSV) []string {
			rows := experiments.UVFRDroop(700, []float64{0.03, 0.08})
			out.write("uvfr_droop.csv", experiments.DroopCSV(rows).Write)
			return stringRows(rows)
		},
	},
}

// FigureNames lists the registry, sorted.
func FigureNames() []string {
	names := make([]string, 0, len(figureRegistry))
	for n := range figureRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FigureTitle returns the heading of a registered figure.
func FigureTitle(name string) (string, bool) {
	s, ok := figureRegistry[name]
	if !ok {
		return "", false
	}
	return s.title, true
}

// Normalized returns the options the figure runs on: each field its
// descriptor sets keeps its value, or takes the default when unset, and
// every other field is zeroed, because the figure does not read it. An
// unseeded figure's seed is pinned to 1. Slices are fresh copies, never the
// caller's or the registry's. Unknown names pass through for Validate to
// report.
func (o FigureOptions) Normalized() FigureOptions {
	s, ok := figureRegistry[o.Name]
	if !ok {
		return o
	}
	d := s.defaults
	n := FigureOptions{
		Name:       o.Name,
		Trials:     orDefault(o.Trials, d.Trials),
		Seed:       1,
		Dims:       orDefaultSlice(o.Dims, d.Dims),
		Ns:         orDefaultSlice(o.Ns, d.Ns),
		AccelTypes: orDefaultSlice(o.AccelTypes, d.AccelTypes),
		BudgetMW:   orDefault(o.BudgetMW, d.BudgetMW),
		BudgetsMW:  orDefaultSlice(o.BudgetsMW, d.BudgetsMW),
		DropRates:  orDefaultSlice(o.DropRates, d.DropRates),
		BgRates:    orDefaultSlice(o.BgRates, d.BgRates),
		Dim:        orDefault(o.Dim, d.Dim),
		TwsMs:      orDefaultSlice(o.TwsMs, d.TwsMs),
	}
	if d.Seed != 0 {
		n.Seed = cmp.Or(o.Seed, d.Seed)
	}
	return n
}

// orDefault returns v, or def when v is unset; a zero def marks a field
// the figure does not read, which is zeroed.
func orDefault[T int | uint64 | float64](v, def T) T {
	if def == 0 {
		return 0
	}
	return cmp.Or(v, def)
}

// orDefaultSlice is orDefault for a sweep axis, returning a copy.
func orDefaultSlice[T int | float64](v, def []T) []T {
	if len(def) == 0 {
		return nil
	}
	if len(v) == 0 {
		v = def
	}
	return append([]T(nil), v...)
}

// Validate reports whether the figure request is runnable. It checks the
// normalized options, so an out-of-range value in a field the figure does
// not read is dropped with the field, not rejected.
func (o FigureOptions) Validate() error {
	return o.Normalized().validate()
}

// validate is Validate on normalized options.
func (o FigureOptions) validate() error {
	if _, ok := figureRegistry[o.Name]; !ok {
		return fmt.Errorf("blitzcoin: unknown figure %q (want one of %s)",
			o.Name, strings.Join(FigureNames(), ", "))
	}
	if o.Trials < 0 {
		return fmt.Errorf("blitzcoin: negative trial count %d", o.Trials)
	}
	for _, d := range append(append([]int(nil), o.Dims...), o.Dim) {
		if d < 0 || (d > 0 && d < 2) {
			return fmt.Errorf("blitzcoin: mesh dimension %d too small", d)
		}
	}
	for _, n := range o.Ns {
		if n < 1 {
			return fmt.Errorf("blitzcoin: tile count %d < 1", n)
		}
	}
	for _, a := range o.AccelTypes {
		if a < 1 {
			return fmt.Errorf("blitzcoin: accelerator type count %d < 1", a)
		}
	}
	for _, r := range o.DropRates {
		if r < 0 || r > 1 {
			return fmt.Errorf("blitzcoin: drop rate %v outside [0,1]", r)
		}
	}
	for _, r := range o.BgRates {
		if r < 0 {
			return fmt.Errorf("blitzcoin: negative background rate %d", r)
		}
	}
	if o.BudgetMW < 0 {
		return fmt.Errorf("blitzcoin: negative budget %v mW", o.BudgetMW)
	}
	for _, b := range o.BudgetsMW {
		if b <= 0 {
			return fmt.Errorf("blitzcoin: non-positive budget %v mW", b)
		}
	}
	for _, tw := range o.TwsMs {
		if tw <= 0 {
			return fmt.Errorf("blitzcoin: non-positive phase duration %v ms", tw)
		}
	}
	return nil
}

// RunFigure reproduces a registered figure and returns its report lines,
// byte-identical at any parallelism. The context cancels the figure's
// sweeps between runs; RunFigure itself does not fail on cancellation —
// callers that must not serve partial figures (Execute, the daemon) check
// ctx.Err() afterwards. A shardable figure (Fig. 7, the fault study) runs
// as the merge of all its trial units, publishing each unit's trial events
// on the context's stream.
//
// With a non-nil csv, RunFigure also writes the figure's data as CSV
// tables rendered from the same rows as the report lines: for each file it
// asks csv for a writer by name ("fig03_exchange_modes.csv", ...), and a
// nil writer skips that file. The caller owns the writers and closes
// them. A failed CSV write stops further writes and is returned, naming
// the file, together with the complete result.
func RunFigure(ctx context.Context, o FigureOptions, csv func(name string) io.Writer) (FigureResult, error) {
	o = o.Normalized()
	if err := o.validate(); err != nil {
		return FigureResult{}, err
	}
	spec := figureRegistry[o.Name]
	out := &figureCSV{sink: csv}
	lines, err := spec.lines(ctx, o, out)
	if err != nil {
		return FigureResult{}, err
	}
	return FigureResult{
		Meta:  newMeta(o.Seed, canonicalHash(string(KindFigure), o)),
		Name:  o.Name,
		Title: spec.title,
		Lines: lines,
	}, out.err
}
