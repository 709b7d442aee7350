// Package experiments orchestrates the paper's evaluation: one entry point
// per table or figure, each returning structured rows that the figure
// registry prints and writes as CSV and the benchmarks regenerate. EXPERIMENTS.md records the measured
// outputs next to the paper's numbers.
package experiments

import (
	"context"
	"fmt"

	"blitzcoin/internal/coin"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/stats"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/trace"
)

// ConvergenceRow is one point of a convergence-scaling experiment
// (Figs. 3, 4, 6, 8).
type ConvergenceRow struct {
	Label                   string
	D                       int // mesh dimension, N = D*D
	N                       int
	Trials                  int
	MeanCycles, MeanPackets float64
	P95Cycles               float64
	MaxCycles               float64
	MeanStartErr            float64
	Converged               int // how many trials converged
}

// String renders the row.
func (r ConvergenceRow) String() string {
	return fmt.Sprintf("%-22s d=%2d N=%3d trials=%d cycles(mean)=%8.0f cycles(p95)=%8.0f packets(mean)=%9.0f startErr=%6.1f conv=%d/%d",
		r.Label, r.D, r.N, r.Trials, r.MeanCycles, r.P95Cycles, r.MeanPackets, r.MeanStartErr, r.Converged, r.Trials)
}

// runConvergence executes trials of the coin emulator with the given
// configuration mutator and initialization, collecting convergence stats.
func runConvergence(ctx context.Context, label string, d, trials int, seed uint64,
	mut func(*coin.Config), initFn func(src *rng.Source, n int) coin.Assignment) ConvergenceRow {

	cfg := coin.Config{
		Mesh:              mesh.Square(d, true),
		Mode:              coin.OneWay,
		RefreshInterval:   32,
		RandomPairing:     true,
		Threshold:         1.5,
		StopAtConvergence: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	// Each trial derives its RNG from the trial index alone, so the fan-out
	// is order-independent; the stats are then accumulated serially in trial
	// order, making the row bit-identical to the serial loop at any
	// parallelism.
	type trialResult struct {
		startErr        float64
		converged       bool
		cycles, packets float64
	}
	st := trace.FromContext(ctx)
	results := sweep.Map(ctx, trials, 0, func(t int) trialResult {
		st.TrialStart(t, trials)
		src := rng.New(seed + uint64(t)*7919)
		e := coin.NewEmulator(cfg, src)
		e.Init(initFn(src, cfg.Mesh.N()))
		res := e.Run()
		micros := res.ConvergenceMicros()
		st.TrialDone(t, trials, res.Converged, micros)
		if res.Converged {
			st.Convergence(t, micros)
		}
		return trialResult{
			startErr:  res.StartErr,
			converged: res.Converged,
			cycles:    float64(res.ConvergenceCycles),
			packets:   float64(res.PacketsToConvergence),
		}
	})
	var cyc, pkt stats.Sample
	var startErr stats.Running
	converged := 0
	for _, r := range results {
		startErr.Add(r.startErr)
		if r.converged {
			converged++
			cyc.Add(r.cycles)
			pkt.Add(r.packets)
		}
	}
	row := ConvergenceRow{
		Label: label, D: d, N: d * d, Trials: trials,
		MeanStartErr: startErr.Mean(), Converged: converged,
	}
	if cyc.N() > 0 {
		row.MeanCycles = cyc.Mean()
		row.P95Cycles = cyc.Quantile(0.95)
		row.MaxCycles = cyc.Max()
		row.MeanPackets = pkt.Mean()
	}
	return row
}

// hotspotInit is the standard initialization of the scaling experiments:
// the coin pool concentrated in one region, modeling the state right after
// a large activity change (see coin.HotspotAssignment).
func hotspotInit(src *rng.Source, n int) coin.Assignment {
	maxes := coin.UniformMaxes(n, 32)
	return coin.HotspotAssignment(src, maxes, int64(n)*16)
}

// Fig03 compares the 1-way and 4-way exchange techniques: packets and NoC
// cycles to convergence (Err < 1.5) across SoC dimensions, averaged over
// random initializations.
func Fig03(ctx context.Context, ds []int, trials int, seed uint64) []ConvergenceRow {
	var rows []ConvergenceRow
	for _, d := range ds {
		rows = append(rows, runConvergence(ctx, "1-way", d, trials, seed,
			func(c *coin.Config) { c.Mode = coin.OneWay }, hotspotInit))
	}
	for _, d := range ds {
		rows = append(rows, runConvergence(ctx, "4-way", d, trials, seed,
			func(c *coin.Config) { c.Mode = coin.FourWay }, hotspotInit))
	}
	return rows
}

// uniformInit draws every tile's initial coins uniformly in [0, max]: the
// per-tile random initialization whose local imbalances dynamic timing
// resolves fastest (converged areas stop chattering, converging areas
// accelerate below the base refresh rate).
func uniformInit(src *rng.Source, n int) coin.Assignment {
	return coin.UniformRandomAssignment(src, coin.UniformMaxes(n, 32))
}

// Fig06 compares conventional 1-way exchange against 1-way with dynamic
// timing (Err < 1.0): dynamic timing reduces both convergence time and
// total packets.
func Fig06(ctx context.Context, ds []int, trials int, seed uint64) []ConvergenceRow {
	var rows []ConvergenceRow
	for _, d := range ds {
		rows = append(rows, runConvergence(ctx, "1-way conventional", d, trials, seed,
			func(c *coin.Config) { c.Threshold = 1.0 }, uniformInit))
	}
	for _, d := range ds {
		rows = append(rows, runConvergence(ctx, "1-way dynamic", d, trials, seed,
			func(c *coin.Config) { c.Threshold = 1.0; c.DynamicTiming = true }, uniformInit))
	}
	return rows
}

// Fig08 sweeps the degree of heterogeneity (number of distinct accelerator
// types) and the SoC dimension, reporting convergence time and the initial
// error (start_error grows with heterogeneity, lengthening convergence).
func Fig08(ctx context.Context, ds []int, accTypes []int, trials int, seed uint64) []ConvergenceRow {
	var rows []ConvergenceRow
	for _, at := range accTypes {
		at := at
		for _, d := range ds {
			label := fmt.Sprintf("accType=%d", at)
			rows = append(rows, runConvergence(ctx, label, d, trials, seed, nil,
				func(src *rng.Source, n int) coin.Assignment {
					maxes := coin.HeterogeneousMaxes(src, n, at, 8)
					var sum int64
					for _, m := range maxes {
						sum += m
					}
					return coin.HotspotAssignment(src, maxes, sum/2)
				}))
		}
	}
	return rows
}

// Fig07Row is one histogram of worst-case residual error (Fig. 7): the
// residual (post-quiescence) worst per-tile error with or without random
// pairing. Without pairing, deadlocked local minima leave tiles off target;
// with pairing everything converges to the 1-coin quantization limit. The
// registry runs the figure from Fig07Points, Fig07Trial and Fig07Assemble.
type Fig07Row struct {
	N             int
	RandomPairing bool
	Trials        int
	Hist          *stats.Histogram
	MeanWorst     float64
	MaxWorst      float64
	WithinOneCoin int // trials whose worst tile error stayed below 1.5 coins
}

// String renders the row summary.
func (r Fig07Row) String() string {
	return fmt.Sprintf("N=%d pairing=%-5v trials=%d worstErr(mean)=%.2f worstErr(max)=%.2f within1coin=%d/%d",
		r.N, r.RandomPairing, r.Trials, r.MeanWorst, r.MaxWorst, r.WithinOneCoin, r.Trials)
}

// Fig07Point is one cell of the Fig. 7 sweep: a mesh size with random
// pairing off or on. Fig07Points fixes the cell order (sizes in input
// order, pairing false before true) that Fig07Assemble's flattened trial
// layout depends on.
type Fig07Point struct {
	D             int  `json:"d"`
	RandomPairing bool `json:"random_pairing"`
}

// Fig07Points expands the tile counts into the figure's cell list.
func Fig07Points(ns []int) []Fig07Point {
	var points []Fig07Point
	for _, n := range ns {
		d := 1
		for d*d < n {
			d++
		}
		for _, pairing := range []bool{false, true} {
			points = append(points, Fig07Point{D: d, RandomPairing: pairing})
		}
	}
	return points
}

// Fig07Trial runs one trial of a Fig. 7 cell and returns its worst-case
// residual per-tile error. The trial's RNG derives from the trial index
// alone, so any machine computing (p, trial, seed) gets the same value —
// the property distributed shards rely on.
func Fig07Trial(p Fig07Point, trial int, seed uint64) float64 {
	d := p.D
	cfg := coin.Config{
		Mesh:            mesh.Square(d, true),
		Mode:            coin.OneWay,
		RefreshInterval: 32,
		RandomPairing:   p.RandomPairing,
		Threshold:       1.0,
		// Run to quiescence: residual error is the subject. The
		// cycle bound cuts off the long tail of last-coin
		// shuffling at large N without affecting the residual.
		StopAtConvergence: false,
		MaxCycles:         400_000,
	}
	src := rng.New(seed + uint64(trial)*104729)
	e := coin.NewEmulator(cfg, src)
	// Sparse activity: half the tiles active, which is what
	// makes neighbor-only exchange deadlock-prone.
	maxes := make([]int64, d*d)
	for i := range maxes {
		if src.Bool() {
			maxes[i] = 32
		}
	}
	e.Init(coin.HotspotAssignment(src, maxes, int64(d*d)*8))
	return e.Run().WorstTileErr
}

// Fig07Assemble folds the flattened per-trial values — point-major, trial
// order within each point, exactly len(points)*trials long — into the
// figure rows. Because the fold walks values in index order, assembling
// shard-computed values is byte-identical to a local run.
func Fig07Assemble(points []Fig07Point, trials int, worstErrs []float64) []Fig07Row {
	rows := make([]Fig07Row, 0, len(points))
	for pi, p := range points {
		row := Fig07Row{N: p.D * p.D, RandomPairing: p.RandomPairing, Trials: trials,
			Hist: stats.NewHistogram(0, 16, 64)}
		var worst stats.Running
		for _, w := range worstErrs[pi*trials : (pi+1)*trials] {
			row.Hist.Add(w)
			worst.Add(w)
			if w < 1.5 {
				row.WithinOneCoin++
			}
		}
		row.MeanWorst = worst.Mean()
		row.MaxWorst = worst.Max()
		rows = append(rows, row)
	}
	return rows
}

// Fig04Row compares BlitzCoin and TokenSmart convergence (Fig. 4).
type Fig04Row struct {
	Label      string
	D, N       int
	Trials     int
	MeanCycles float64
	P95Cycles  float64
	MaxCycles  float64
}

// String renders the row.
func (r Fig04Row) String() string {
	return fmt.Sprintf("%-4s d=%2d N=%3d trials=%d cycles mean=%9.0f p95=%9.0f max=%9.0f",
		r.Label, r.D, r.N, r.Trials, r.MeanCycles, r.P95Cycles, r.MaxCycles)
}

// Fig04 runs BlitzCoin and the ring-based TokenSmart from random
// initial allocations and compares time to convergence. BC scales with
// sqrt(N); TS's sequential token passing scales with N and its greedy/fair
// oscillation produces long-tail outliers.
func Fig04(ctx context.Context, ds []int, trials int, seed uint64) []Fig04Row {
	var rows []Fig04Row
	for _, d := range ds {
		cr := runConvergence(ctx, "BC", d, trials, seed, nil, hotspotInit)
		rows = append(rows, Fig04Row{Label: "BC", D: d, N: d * d, Trials: trials,
			MeanCycles: cr.MeanCycles, P95Cycles: cr.P95Cycles, MaxCycles: cr.MaxCycles})
	}
	for _, d := range ds {
		cycles := sweep.Map(ctx, trials, 0, func(t int) float64 {
			return float64(tokenSmartConvergence(d, seed+uint64(t)*37))
		})
		var cyc stats.Sample
		for _, c := range cycles {
			cyc.Add(c)
		}
		rows = append(rows, Fig04Row{Label: "TS", D: d, N: d * d, Trials: trials,
			MeanCycles: cyc.Mean(), P95Cycles: cyc.Quantile(0.95), MaxCycles: cyc.Max()})
	}
	return rows
}
