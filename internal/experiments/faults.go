package experiments

import (
	"context"
	"fmt"

	"blitzcoin/internal/coin"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/stats"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/workload"
)

// FaultRow is one point of the fault-resilience sweep: a (mesh size,
// drop rate) cell of the hardened coin exchange run to quiescence. The
// hardened 1-way exchange must keep converging (Err < 1.5) and keep the
// coin pool conserved as the PM plane gets lossier; the acceptance point
// of the robustness extension is the d=10, 1% cell. Runs go to quiescence
// (not first crossing) so the conservation audit's end-of-run verdict is
// part of every trial. The registry runs the study from FaultPoints,
// FaultStudyTrial and FaultAssemble.
type FaultRow struct {
	D, N     int
	DropRate float64
	Trials   int

	Converged int // trials whose error crossed the threshold
	Conserved int // trials that ended with the pool exactly conserved

	MeanCycles   float64 // convergence time over converged trials
	P95Cycles    float64
	MeanFinalErr float64
	MeanDropped  float64 // PM-plane packets lost per trial
	MeanRetries  float64 // exchanges abandoned by timeout and retried
	MeanRepairs  float64 // conservation audits that repaired a residue
}

// String renders the row.
func (r FaultRow) String() string {
	return fmt.Sprintf("d=%2d N=%3d drop=%4.1f%% trials=%d conv=%d/%d conserved=%d/%d cycles(mean)=%8.0f cycles(p95)=%8.0f finalErr=%5.2f dropped=%7.1f retries=%7.1f repairs=%5.1f",
		r.D, r.N, 100*r.DropRate, r.Trials, r.Converged, r.Trials,
		r.Conserved, r.Trials, r.MeanCycles, r.P95Cycles,
		r.MeanFinalErr, r.MeanDropped, r.MeanRetries, r.MeanRepairs)
}

// FaultPoint is one (mesh size, drop rate) cell of the fault study.
// FaultPoints fixes the cell order (sizes outer, rates inner) that
// FaultAssemble's flattened trial layout depends on.
type FaultPoint struct {
	D        int     `json:"d"`
	DropRate float64 `json:"drop_rate"`
}

// FaultPoints expands the sweep axes into the study's cell list.
func FaultPoints(ds []int, dropRates []float64) []FaultPoint {
	var points []FaultPoint
	for _, d := range ds {
		for _, rate := range dropRates {
			points = append(points, FaultPoint{D: d, DropRate: rate})
		}
	}
	return points
}

// FaultTrial is the reduction-relevant outcome of one fault-study trial,
// flattened to plain exported fields so a shard can ship it over the wire
// (Go's JSON encoding round-trips these values exactly).
type FaultTrial struct {
	Converged         bool    `json:"converged"`
	ConvergenceCycles uint64  `json:"convergence_cycles"`
	Conserved         bool    `json:"conserved"`
	FinalErr          float64 `json:"final_err"`
	Dropped           uint64  `json:"dropped"`
	Retries           uint64  `json:"retries"`
	AuditRepairs      uint64  `json:"audit_repairs"`
}

// FaultStudyTrial runs one hardened-exchange trial of a fault-study cell.
// Both the simulation and fault RNG streams derive from the trial index
// alone, so any machine computing (p, trial, seed) gets the same outcome.
func FaultStudyTrial(p FaultPoint, trial int, seed uint64) FaultTrial {
	cfg := coin.Config{
		Mesh:            mesh.Square(p.D, true),
		Mode:            coin.OneWay,
		RefreshInterval: 32,
		RandomPairing:   true,
		Threshold:       1.5,
		MaxCycles:       400_000,
		// Harden even the zero-drop baseline so every cell of
		// the sweep pays the same protocol overhead and the
		// rate column is the only variable.
		Harden: true,
		Faults: &fault.Config{
			Seed:     seed + uint64(trial)*2741 + uint64(p.D),
			DropRate: p.DropRate,
		},
	}
	src := rng.New(seed + uint64(trial)*7919)
	e := coin.NewEmulator(cfg, src)
	e.Init(hotspotInit(src, cfg.Mesh.N()))
	res := e.Run()
	return FaultTrial{
		Converged:         res.Converged,
		ConvergenceCycles: res.ConvergenceCycles,
		Conserved:         res.Conserved(),
		FinalErr:          res.FinalErr,
		Dropped:           res.Dropped,
		Retries:           res.Retries,
		AuditRepairs:      res.AuditRepairs,
	}
}

// FaultAssemble folds the flattened per-trial outcomes — point-major,
// trial order within each point, exactly len(points)*trials long — into
// the study rows, walking values in index order so shard-computed trials
// assemble byte-identically to a local run.
func FaultAssemble(points []FaultPoint, trials int, results []FaultTrial) []FaultRow {
	rows := make([]FaultRow, 0, len(points))
	for pi, p := range points {
		row := FaultRow{D: p.D, N: p.D * p.D, DropRate: p.DropRate, Trials: trials}
		var cyc stats.Sample
		var finalErr, dropped, retries, repairs stats.Running
		for _, res := range results[pi*trials : (pi+1)*trials] {
			if res.Converged {
				row.Converged++
				cyc.Add(float64(res.ConvergenceCycles))
			}
			if res.Conserved {
				row.Conserved++
			}
			finalErr.Add(res.FinalErr)
			dropped.Add(float64(res.Dropped))
			retries.Add(float64(res.Retries))
			repairs.Add(float64(res.AuditRepairs))
		}
		if cyc.N() > 0 {
			row.MeanCycles = cyc.Mean()
			row.P95Cycles = cyc.Quantile(0.95)
		}
		row.MeanFinalErr = finalErr.Mean()
		row.MeanDropped = dropped.Mean()
		row.MeanRetries = retries.Mean()
		row.MeanRepairs = repairs.Mean()
		rows = append(rows, row)
	}
	return rows
}

// DegradedRow is one point of the degraded-mode SoC study: the 3x3 SoC
// under BlitzCoin with K tiles fail-stopped mid-workload.
type DegradedRow struct {
	Kills int
	Res   soc.Result
	// Excursion20 is the longest span the survivors held total power more
	// than 20% above the cap — the recovery-bound metric.
	Exc20 sim.Cycles
	Exc35 sim.Cycles
}

// String renders the row.
func (r DegradedRow) String() string {
	return fmt.Sprintf("kills=%d exec=%8.1fus completed=%-5v requeued=%2d avgP=%6.1fmW peak=%6.1fmW exc20=%5d exc35=%5d",
		r.Kills, r.Res.ExecMicros(), r.Res.Completed, r.Res.TasksRequeued,
		r.Res.AvgPowerMW, r.Res.PeakPowerMW, r.Exc20, r.Exc35)
}

// degradedKills is the kill schedule of the degraded-mode study: two FFTs
// and a Viterbi, staggered so each kill lands mid-task, leaving at least
// one tile of every accelerator type alive.
var degradedKills = []fault.TileFault{
	{Tile: 1, At: 60_000},  // FFT
	{Tile: 3, At: 100_000}, // Viterbi
	{Tile: 7, At: 140_000}, // FFT
}

// DegradedSoC kills 0..3 of the 3x3 SoC's nine tiles mid-workload and
// reports makespan, task re-queues, and the longest cap excursion. The
// workload still completes on the survivors, and the excursion stays
// bounded: the hardened exchange prunes the dead neighbors and the audit
// re-mints their stranded coins back into the live pool.
func DegradedSoC(ctx context.Context, seed uint64) []DegradedRow {
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 4)
	return sweep.Map(ctx, len(degradedKills)+1, 0, func(k int) DegradedRow {
		cfg := soc.SoC3x3(120, soc.SchemeBC, seed)
		if k > 0 {
			cfg.Faults = &fault.Config{TileKills: degradedKills[:k]}
		}
		res := soc.New(cfg).Run(g)
		return DegradedRow{
			Kills: k,
			Res:   res,
			Exc20: res.LongestCapExcursion(0.20),
			Exc35: res.LongestCapExcursion(0.35),
		}
	})
}
