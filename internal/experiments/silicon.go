package experiments

import (
	"context"
	"fmt"

	"blitzcoin/internal/coin"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/power"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/trace"
	"blitzcoin/internal/workload"
)

// CoinSnapshotRow is one tile's allocation before and after convergence —
// the Fig. 19 (bottom left) plot.
type CoinSnapshotRow struct {
	Tile      int
	Accel     string
	TargetMax int64
	Before    int64
	After     int64
	Residual  float64 // |after - fair target|
}

// String renders the row.
func (r CoinSnapshotRow) String() string {
	return fmt.Sprintf("tile %2d %-8s max=%2d before=%2d after=%2d residual=%.2f",
		r.Tile, r.Accel, r.TargetMax, r.Before, r.After, r.Residual)
}

// Fig19Coins reproduces the coin-redistribution measurement of Fig. 19
// (bottom left): starting from a random allocation on the 6x6 prototype's
// PM cluster, the seven active tiles' coins converge to their targets with
// residual error below one coin.
func Fig19Coins(budgetMW float64, seed uint64) []CoinSnapshotRow {
	m := mesh.New(6, 6, true)
	src := rng.New(seed)
	cfg := coin.Config{
		Mesh:            m,
		Mode:            coin.OneWay,
		RefreshInterval: 32,
		RandomPairing:   true,
		Threshold:       1.0,
	}
	e := coin.NewEmulator(cfg, src)

	// The seven active tiles of the silicon workload, their targets from
	// the accelerator characterizations, quantized like the SoC harness.
	cat := power.Catalog()
	cv := cat["NVDLA"].PMax() / 63
	type tileSpec struct {
		tile  int
		accel string
	}
	actives := []tileSpec{
		{0, "NVDLA"}, {1, "FFT"}, {2, "FFT"},
		{4, "Viterbi"}, {5, "Viterbi"}, {6, "Viterbi"}, {7, "Viterbi"},
	}
	maxes := make([]int64, m.N())
	for _, a := range actives {
		maxes[a.tile] = int64(cat[a.accel].PMax()/cv + 0.5)
	}
	pool := int64(budgetMW/cv + 0.5)
	assignment := coin.RandomAssignment(src, maxes, pool)

	before := make([]int64, m.N())
	copy(before, assignment.Has)

	e.Init(assignment)
	res := e.Run()
	if !res.Converged {
		panic("experiments: Fig19Coins did not converge")
	}
	has, _ := e.Snapshot()

	var sumMax int64
	for _, mx := range maxes {
		sumMax += mx
	}
	var rows []CoinSnapshotRow
	for _, a := range actives {
		fair := float64(pool) * float64(maxes[a.tile]) / float64(sumMax)
		resid := float64(has[a.tile]) - fair
		if resid < 0 {
			resid = -resid
		}
		rows = append(rows, CoinSnapshotRow{
			Tile: a.tile, Accel: a.accel, TargetMax: maxes[a.tile],
			Before: before[a.tile], After: has[a.tile], Residual: resid,
		})
	}
	return rows
}

// Fig20Trace records the per-tile coin counts over time across an activity
// transition — the actual plot of Fig. 20: after the system converges for
// the 7-accelerator workload, the NVDLA task ends (its max drops to 0) and
// its coins redistribute to the remaining active tiles. The returned
// recorder holds one series per active tile plus the NVDLA tile; the
// response time is the interval from the transition to re-convergence.
func Fig20Trace(budgetMW float64, seed uint64) (*trace.Recorder, sim.Cycles) {
	m := mesh.New(6, 6, true)
	src := rng.New(seed)
	cfg := coin.Config{
		Mesh:            m,
		Mode:            coin.OneWay,
		RefreshInterval: 32,
		RandomPairing:   true,
		Threshold:       1.0,
		// Hardware-consistent response semantics, as in the SoC harness:
		// the transition is answered when every still-active tile is
		// within a coin of its (raised) usable target.
		CoinCap:     63,
		DeficitOnly: true,
	}
	e := coin.NewEmulator(cfg, src)

	cat := power.Catalog()
	cv := cat["NVDLA"].PMax() / 63
	tiles := []struct {
		tile  int
		accel string
	}{
		{0, "NVDLA"}, {1, "FFT"}, {2, "FFT"},
		{4, "Viterbi"}, {5, "Viterbi"}, {6, "Viterbi"}, {7, "Viterbi"},
	}
	maxes := make([]int64, m.N())
	for _, t := range tiles {
		maxes[t.tile] = int64(cat[t.accel].PMax()/cv + 0.5)
	}
	pool := int64(budgetMW/cv + 0.5)

	rec := trace.NewRecorder()
	names := map[int]string{}
	for _, t := range tiles {
		names[t.tile] = fmt.Sprintf("t%02d-%s", t.tile, t.accel)
	}
	e.SetOnChange(func(tile int, has int64) {
		if name, ok := names[tile]; ok {
			rec.Series(name).Record(e.Kernel().Now(), float64(has))
		}
	})

	a := coin.ConvergedAssignment(maxes, pool)
	e.Init(a)
	for _, t := range tiles {
		rec.Series(names[t.tile]).Record(0, float64(a.Has[t.tile]))
	}
	e.Run() // settle from the converged start (records baseline)

	// The transition: NVDLA's task ends.
	e.SetMax(0, 0)
	e.Run()
	return rec, e.ResponseCycles()
}

// NoPMRow reports the PM-overhead check of Sec. VI-C: an accelerator run
// under BlitzCoin with ample budget performs within a hair of the same
// accelerator without power management (the FFT No-PM baseline tile).
type NoPMRow struct {
	Accel       string
	NoPMExecUs  float64 // analytic: work at Fmax, no PM logic
	BCExecUs    float64 // measured under BlitzCoin with ample budget
	OverheadPct float64
}

// String renders the row.
func (r NoPMRow) String() string {
	return fmt.Sprintf("%-5s no-PM=%8.2fus BC=%8.2fus overhead=%.2f%%",
		r.Accel, r.NoPMExecUs, r.BCExecUs, r.OverheadPct)
}

// NoPMOverhead measures BlitzCoin's intrusiveness: a single FFT task on
// the 3x3 SoC with a budget generous enough that the tile should reach
// Fmax, compared against the ideal no-PM execution (work / Fmax). The
// paper measures < 2% difference between the PM and No-PM FFT tiles.
func NoPMOverhead(seed uint64) NoPMRow {
	g := workload.SiliconSubset(3) // FFT -> NVDLA chain with one Viterbi
	// Ideal: every task at its accelerator's Fmax, honoring the DAG.
	cat := power.Catalog()
	memo := make([]float64, len(g.Tasks))
	var finish func(i int) float64
	finish = func(i int) float64 {
		if memo[i] != 0 {
			return memo[i]
		}
		var start float64
		for _, d := range g.Tasks[i].Deps {
			if f := finish(d); f > start {
				start = f
			}
		}
		memo[i] = start + g.Tasks[i].WorkCycles/cat[g.Tasks[i].Accel].FMax()
		return memo[i]
	}
	var ideal float64
	for i := range g.Tasks {
		if f := finish(i); f > ideal {
			ideal = f
		}
	}

	// Measured: ample budget (the combined Pmax) so allocation never
	// constrains frequency; any slowdown is PM machinery (actuation
	// settling, coin transport).
	cfg := soc.SoC3x3(400, soc.SchemeBC, seed)
	res := soc.New(cfg).Run(g)
	if !res.Completed {
		panic("experiments: NoPMOverhead run incomplete")
	}
	bc := res.ExecMicros()
	return NoPMRow{
		Accel:       "FFT",
		NoPMExecUs:  ideal,
		BCExecUs:    bc,
		OverheadPct: 100 * (bc - ideal) / ideal,
	}
}

// ContentionRow reports the NoC-contention robustness study: coin-exchange
// convergence while synthetic register/interrupt traffic competes for
// plane 5 (the scenario behind the transient negative counts of
// Sec. IV-A).
type ContentionRow struct {
	BackgroundPktPerKCycle int // injected background packets per 1000 cycles per tile
	MeanCycles             float64
	MeanPackets            float64
	Converged              int
	Trials                 int
}

// String renders the row.
func (r ContentionRow) String() string {
	return fmt.Sprintf("bg=%3d pkts/kcycle/tile cycles(mean)=%8.0f packets(mean)=%9.0f conv=%d/%d",
		r.BackgroundPktPerKCycle, r.MeanCycles, r.MeanPackets, r.Converged, r.Trials)
}

// ContentionStudy sweeps background plane-5 traffic rates and measures the
// impact on convergence: the coin exchange must degrade gracefully, not
// collapse, when register traffic shares its plane.
func ContentionStudy(ctx context.Context, d int, rates []int, trials int, seed uint64) []ContentionRow {
	var rows []ContentionRow
	for _, rate := range rates {
		row := ContentionRow{BackgroundPktPerKCycle: rate, Trials: trials}
		results := sweep.Map(ctx, trials, 0, func(tr int) coin.Result {
			src := rng.New(seed + uint64(tr)*131)
			cfg := coin.Config{
				Mesh:              mesh.Square(d, true),
				Mode:              coin.OneWay,
				RefreshInterval:   32,
				RandomPairing:     true,
				Threshold:         1.5,
				StopAtConvergence: true,
			}
			k := &sim.Kernel{}
			net := noc.New(k, cfg.Mesh, noc.DefaultConfig())
			e := coin.NewEmulatorOn(k, net, cfg, src.Split())

			// Background traffic: each tile injects register accesses to
			// random destinations at the given rate. The accesses share
			// plane 5 with the coin messages, creating real link and
			// ejection contention. They are routed and never landed: they
			// reach no FSM, as the real FSM ignores non-coin register
			// traffic, and nothing reads their delivery.
			bgsrc := src.Split()
			n := cfg.Mesh.N()
			if rate > 0 {
				// rate is packets per 1000 cycles per tile, so the SoC
				// injects rate*n/1000 packets per cycle. A fractional
				// accumulator meters that precisely: every tick (4 cycles)
				// owes rate*n/250 packets.
				const tick = sim.Cycles(4)
				perTick := float64(rate) * float64(n) * float64(tick) / 1000.0
				owed := 0.0
				var inject func()
				inject = func() {
					owed += perTick
					for ; owed >= 1; owed-- {
						from := bgsrc.Intn(n)
						to := bgsrc.Intn(n)
						if to == from {
							continue
						}
						net.Route(noc.PlanePM, noc.KindRegAccess, from, to, 1)
					}
					k.Schedule(tick, inject)
				}
				k.Schedule(1, inject)
			}

			maxes := coin.UniformMaxes(n, 32)
			e.Init(coin.HotspotAssignment(src.Split(), maxes, int64(n)*16))
			return e.Run()
		})
		var cyc, pkt float64
		for _, res := range results {
			if res.Converged {
				row.Converged++
				cyc += float64(res.ConvergenceCycles)
				pkt += float64(res.PacketsToConvergence)
			}
		}
		if row.Converged > 0 {
			row.MeanCycles = cyc / float64(row.Converged)
			row.MeanPackets = pkt / float64(row.Converged)
		}
		rows = append(rows, row)
	}
	return rows
}
