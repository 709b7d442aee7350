package soc

import (
	"fmt"
	"slices"

	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/trace"
	"blitzcoin/internal/workload"
)

// Result summarizes one SoC workload run — the quantities Figs. 16-20
// report: execution time, PM response time, and the power trace with its
// budget utilization.
type Result struct {
	SoC      string
	Scheme   string
	Strategy string
	Workload string

	// Completed reports whether every task finished within MaxCycles.
	Completed bool
	// ExecCycles is the workload makespan.
	ExecCycles sim.Cycles

	// Responses are the PM response times of every activity change the
	// scheme completed a reallocation for.
	Responses []sim.Cycles

	// Power statistics over the execution window.
	AvgPowerMW  float64
	PeakPowerMW float64
	BudgetMW    float64

	// ActivityChanges counts task starts and ends.
	ActivityChanges int

	// Fault-injection outcome (zero on a healthy run).
	TilesKilled   int // managed accelerator tiles fail-stopped mid-run
	TasksRequeued int // tasks whose tile died and that were re-dispatched

	// Recorder holds the per-tile power traces (Fig. 16-style).
	Recorder *trace.Recorder
	// Total is the SoC-level accelerator power trace.
	Total *trace.Series
	// NoC summarizes network activity: PM-plane coin traffic plus the DMA
	// bursts bracketing every task.
	NoC noc.Stats
}

// ExecMicros returns the makespan in microseconds.
func (r Result) ExecMicros() float64 { return sim.CyclesToMicros(r.ExecCycles) }

// MeanResponseMicros returns the average PM response time in microseconds,
// or 0 with no samples. The responses are summed in recorded order.
func (r Result) MeanResponseMicros() float64 {
	if len(r.Responses) == 0 {
		return 0
	}
	var sum float64
	for _, c := range r.Responses {
		sum += sim.CyclesToMicros(c)
	}
	return sum / float64(len(r.Responses))
}

// ResponseMicros returns the mean and the median PM response time in
// microseconds, or zeros with no samples, from one pass over Responses:
// the mean is MeanResponseMicros, summed in the same order, and the median
// is the middle sorted value, or the mean of the middle two. The median
// matches how the paper reports a single representative transition
// (Fig. 20) better than the mean, which long-haul coin-transport outliers
// skew.
func (r Result) ResponseMicros() (mean, median float64) {
	n := len(r.Responses)
	if n == 0 {
		return 0, 0
	}
	us := make([]float64, n)
	var sum float64
	for i, c := range r.Responses {
		us[i] = sim.CyclesToMicros(c)
		sum += us[i]
	}
	slices.Sort(us)
	if n%2 == 1 {
		return sum / float64(n), us[n/2]
	}
	return sum / float64(n), us[n/2-1]*0.5 + us[n/2]*0.5
}

// MaxResponseMicros returns the worst PM response time in microseconds.
func (r Result) MaxResponseMicros() float64 {
	var m float64
	for _, c := range r.Responses {
		if us := sim.CyclesToMicros(c); us > m {
			m = us
		}
	}
	return m
}

// UtilizationPct returns average power as a percentage of the budget — the
// P_avg/P_budget metric the silicon measurements report at 97% (Fig. 19).
func (r Result) UtilizationPct() float64 {
	if r.BudgetMW == 0 {
		return 0
	}
	return 100 * r.AvgPowerMW / r.BudgetMW
}

// CapExceeded reports whether the instantaneous accelerator power ever
// exceeded the budget by more than tolFrac (e.g. 0.05 for 5%). Transient
// excursions within the tolerance are expected while actuation settles.
func (r Result) CapExceeded(tolFrac float64) bool {
	return r.PeakPowerMW > r.BudgetMW*(1+tolFrac)
}

// LongestCapExcursion returns the longest contiguous span of cycles during
// which the SoC power trace exceeded the budget by more than tolFrac. This
// is the degraded-mode metric: faults may cause overshoot, but the recovery
// machinery must pull the survivors back under the cap within a bounded
// window — a permanent excursion means a tile's allocation leaked.
func (r Result) LongestCapExcursion(tolFrac float64) sim.Cycles {
	if r.Total == nil {
		return 0
	}
	limit := r.BudgetMW * (1 + tolFrac)
	var longest, start sim.Cycles
	above := false
	closeSpan := func(at sim.Cycles) {
		if above && at-start > longest {
			longest = at - start
		}
		above = false
	}
	for _, p := range r.Total.Points {
		at := sim.Cycles(p.Cycle)
		if at >= r.ExecCycles {
			break
		}
		if p.Value > limit {
			if !above {
				start, above = at, true
			}
		} else {
			closeSpan(at)
		}
	}
	closeSpan(r.ExecCycles)
	return longest
}

// String renders the one-line summary the CLI tools print.
func (r Result) String() string {
	return fmt.Sprintf("%s %s %s %s: exec=%.1fus resp(mean)=%.2fus resp(max)=%.2fus avgP=%.1fmW util=%.1f%% changes=%d",
		r.SoC, r.Scheme, r.Strategy, r.Workload,
		r.ExecMicros(), r.MeanResponseMicros(), r.MaxResponseMicros(),
		r.AvgPowerMW, r.UtilizationPct(), r.ActivityChanges)
}

// buildResult assembles the Result from the run state.
func (r *Runner) buildResult(g *workload.Graph, end sim.Cycles, completed bool) Result {
	total := r.rec.TotalSeries("total")
	res := Result{
		SoC:             r.cfg.Name,
		Scheme:          r.ctrl.Name(),
		Strategy:        r.cfg.Strategy.String(),
		Workload:        g.Name,
		Completed:       completed,
		ExecCycles:      end,
		Responses:       append([]sim.Cycles(nil), r.ctrl.ResponseSamples()...),
		BudgetMW:        r.ctrl.BudgetMW(),
		ActivityChanges: r.activityChanges,
		TilesKilled:     r.tilesKilled,
		TasksRequeued:   r.tasksRequeued,
		Recorder:        r.rec,
		Total:           total,
		NoC:             r.net.Stats(),
	}
	if end > 0 {
		res.AvgPowerMW = total.Mean(0, end)
		res.PeakPowerMW = total.Max(0, end)
	}
	return res
}
