package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
	"strings"

	"blitzcoin/internal/scaling"
)

// Table is one CSV file of a figure's data, in the artifact's "CSV data
// for post-processing" form: a header and one record per row. Each row
// type has exactly one renderer below, so a figure's CSV and its report
// lines come from the same rows.
type Table struct {
	Header  []string
	Records [][]string
}

// Write renders the table as CSV.
func (t Table) Write(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Records)
}

// table builds a Table with one record per row.
func table[T any](header []string, rows []T, record func(T) []string) Table {
	t := Table{Header: header, Records: make([][]string, len(rows))}
	for i, r := range rows {
		t.Records[i] = record(r)
	}
	return t
}

func itoa(v int) string { return strconv.Itoa(v) }

// ftoa is the one number format of every table: six significant digits.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// convergenceCols are the measured columns a ConvergenceRow table may
// select.
var convergenceCols = map[string]func(ConvergenceRow) float64{
	"cycles_mean":  func(r ConvergenceRow) float64 { return r.MeanCycles },
	"cycles_p95":   func(r ConvergenceRow) float64 { return r.P95Cycles },
	"packets_mean": func(r ConvergenceRow) float64 { return r.MeanPackets },
	"start_error":  func(r ConvergenceRow) float64 { return r.MeanStartErr },
}

// ConvergenceCSV renders the rows of Figs. 3, 6 and 8: the label under
// labelCol, d and N, then the named columns of convergenceCols.
func ConvergenceCSV(rows []ConvergenceRow, labelCol string, cols ...string) Table {
	return table(append([]string{labelCol, "d", "N"}, cols...), rows, func(r ConvergenceRow) []string {
		rec := []string{r.Label, itoa(r.D), itoa(r.N)}
		for _, c := range cols {
			rec = append(rec, ftoa(convergenceCols[c](r)))
		}
		return rec
	})
}

// Fig01CSV renders the Fig. 1 motivation series.
func Fig01CSV(rows []Fig01Row) Table {
	return table([]string{"scheme", "N", "response_us", "tw_ms", "interval_us", "supported"}, rows,
		func(r Fig01Row) []string {
			return []string{r.Scheme, ftoa(r.N), ftoa(r.ResponseUs), ftoa(r.TwMs), ftoa(r.IntervalUs),
				strconv.FormatBool(r.Supported)}
		})
}

// Fig04CSV renders the Fig. 4 BlitzCoin vs TokenSmart rows.
func Fig04CSV(rows []Fig04Row) Table {
	return table([]string{"scheme", "d", "N", "cycles_mean", "cycles_p95", "cycles_max"}, rows,
		func(r Fig04Row) []string {
			return []string{r.Label, itoa(r.D), itoa(r.N), ftoa(r.MeanCycles), ftoa(r.P95Cycles), ftoa(r.MaxCycles)}
		})
}

// Fig07CSV renders the Fig. 7 histograms, one record per non-empty bucket.
func Fig07CSV(rows []Fig07Row) Table {
	t := Table{Header: []string{"N", "random_pairing", "bucket_center", "count"}}
	for _, r := range rows {
		for i, c := range r.Hist.Counts {
			if c > 0 {
				t.Records = append(t.Records, []string{itoa(r.N), strconv.FormatBool(r.RandomPairing),
					ftoa(r.Hist.BucketCenter(i)), itoa(c)})
			}
		}
	}
	return t
}

// Fig13CSV renders the accelerator operating points of Fig. 13.
func Fig13CSV(points []Fig13Point) Table {
	return table([]string{"accel", "V", "F_MHz", "P_mW"}, points, func(p Fig13Point) []string {
		return []string{p.Accel, ftoa(p.V), ftoa(p.FMHz), ftoa(p.PmW)}
	})
}

// SoCCSV renders the SoC runs of Figs. 16, 17 and 18.
func SoCCSV(rows []SoCRow) Table {
	return table([]string{"soc", "scheme", "budget_mw", "workload", "exec_us", "resp_mean_us", "resp_max_us", "utilization_pct"}, rows,
		func(r SoCRow) []string {
			return []string{r.SoC, r.Scheme, ftoa(r.BudgetMW), r.Workload, ftoa(r.Res.ExecMicros()),
				ftoa(r.Res.MeanResponseMicros()), ftoa(r.Res.MaxResponseMicros()), ftoa(r.Res.UtilizationPct())}
		})
}

// SiliconCSV renders the Fig. 19 silicon-proxy rows.
func SiliconCSV(rows []SiliconRow) Table {
	return table([]string{"accelerators", "exec_us", "utilization_pct", "gain_vs_static_pct", "resp_us"}, rows,
		func(r SiliconRow) []string {
			return []string{itoa(r.Accelerators), ftoa(r.ExecUs), ftoa(r.UtilizationPct),
				ftoa(r.ThroughputGainPct), ftoa(r.MeanResponseUs)}
		})
}

// CoinSnapshotCSV renders the Fig. 19 (bottom left) coin allocation.
func CoinSnapshotCSV(rows []CoinSnapshotRow) Table {
	i64 := func(v int64) string { return strconv.FormatInt(v, 10) }
	return table([]string{"tile", "accel", "target_max", "before", "after", "residual"}, rows,
		func(r CoinSnapshotRow) []string {
			return []string{itoa(r.Tile), r.Accel, i64(r.TargetMax), i64(r.Before), i64(r.After), ftoa(r.Residual)}
		})
}

// Fig20CSV renders the Fig. 20 per-scheme responses.
func Fig20CSV(rows []Fig20Row) Table {
	return table([]string{"scheme", "resp_mean_us", "resp_max_us"}, rows, func(r Fig20Row) []string {
		return []string{r.Scheme, ftoa(r.MeanResponseUs), ftoa(r.MaxResponseUs)}
	})
}

// Fig21CSV renders Fig. 21 one scheme per record: the fitted law and tau,
// Nmax at each phase duration of rows, and the PM-time fraction at
// Tw = 10 ms for N = 100, 10, 400 and 1000 (N = 100 first, where it sat
// before the other sizes were added).
func Fig21CSV(models map[string]scaling.Model, rows []Fig21Row) Table {
	t := Table{Header: []string{"scheme", "law", "tau_us"}}
	index := map[string]int{}
	for _, r := range rows {
		i, ok := index[r.Scheme]
		if !ok {
			m := models[r.Scheme]
			i = len(t.Records)
			index[r.Scheme] = i
			t.Records = append(t.Records, []string{r.Scheme, m.Law.String(), ftoa(m.Tau)})
		}
		if i == 0 {
			tw := strings.ReplaceAll(strconv.FormatFloat(r.TwMs, 'g', -1, 64), ".", "p")
			t.Header = append(t.Header, "nmax_"+tw+"ms")
		}
		t.Records[i] = append(t.Records[i], ftoa(r.NMax))
	}
	for _, n := range []int{100, 10, 400, 1000} {
		t.Header = append(t.Header, "overhead_pct_n"+itoa(n)+"_10ms")
		for i, rec := range t.Records {
			t.Records[i] = append(rec, ftoa(100*models[rec[0]].OverheadFraction(float64(n), 10_000)))
		}
	}
	return t
}

// Table1CSV renders the Table I comparison.
func Table1CSV(rows []Table1Row) Table {
	return table([]string{"strategy", "reference", "control", "allocation", "levels", "resp_us_n13", "scaling"}, rows,
		func(r Table1Row) []string {
			return []string{r.Strategy, r.Reference, r.Control, r.Allocation, itoa(r.Levels), ftoa(r.ResponseUs), r.Scaling}
		})
}

// APvsRPCSV renders the Sec. VI-A allocation-strategy comparison.
func APvsRPCSV(rows []APvsRPRow) Table {
	return table([]string{"budget_mw", "ap_exec_us", "rp_exec_us", "rp_gain_pct"}, rows, func(r APvsRPRow) []string {
		return []string{ftoa(r.BudgetMW), ftoa(r.APExecUs), ftoa(r.RPExecUs), ftoa(r.RPImprovementPct)}
	})
}

// NoPMCSV renders the Sec. VI-C PM-overhead check.
func NoPMCSV(r NoPMRow) Table {
	return table([]string{"accel", "nopm_exec_us", "bc_exec_us", "overhead_pct"}, []NoPMRow{r}, func(r NoPMRow) []string {
		return []string{r.Accel, ftoa(r.NoPMExecUs), ftoa(r.BCExecUs), ftoa(r.OverheadPct)}
	})
}

// ContentionCSV renders the NoC-contention study.
func ContentionCSV(rows []ContentionRow) Table {
	return table([]string{"bg_pkts_per_kcycle_tile", "trials", "converged", "cycles_mean", "packets_mean"}, rows,
		func(r ContentionRow) []string {
			return []string{itoa(r.BackgroundPktPerKCycle), itoa(r.Trials), itoa(r.Converged),
				ftoa(r.MeanCycles), ftoa(r.MeanPackets)}
		})
}

// FaultCSV renders the packet-loss study.
func FaultCSV(rows []FaultRow) Table {
	return table([]string{"d", "N", "drop_rate", "trials", "converged", "conserved", "cycles_mean", "cycles_p95",
		"final_err_mean", "dropped_mean", "retries_mean", "repairs_mean"}, rows,
		func(r FaultRow) []string {
			return []string{itoa(r.D), itoa(r.N), ftoa(r.DropRate), itoa(r.Trials), itoa(r.Converged), itoa(r.Conserved),
				ftoa(r.MeanCycles), ftoa(r.P95Cycles), ftoa(r.MeanFinalErr), ftoa(r.MeanDropped),
				ftoa(r.MeanRetries), ftoa(r.MeanRepairs)}
		})
}

// DegradedCSV renders the degraded-mode SoC study.
func DegradedCSV(rows []DegradedRow) Table {
	u64 := func(v uint64) string { return strconv.FormatUint(v, 10) }
	return table([]string{"kills", "exec_us", "completed", "tasks_requeued", "avg_power_mw", "peak_power_mw",
		"exc20_cycles", "exc35_cycles"}, rows,
		func(r DegradedRow) []string {
			return []string{itoa(r.Kills), ftoa(r.Res.ExecMicros()), strconv.FormatBool(r.Res.Completed),
				itoa(r.Res.TasksRequeued), ftoa(r.Res.AvgPowerMW), ftoa(r.Res.PeakPowerMW), u64(r.Exc20), u64(r.Exc35)}
		})
}

// ThermalCapCSV renders the thermal hotspot guard study.
func ThermalCapCSV(rows []ThermalCapRow) Table {
	return table([]string{"cap_coins", "converged", "cycles", "clamped", "conserved"}, rows,
		func(r ThermalCapRow) []string {
			return []string{strconv.FormatInt(r.CapCoins, 10), strconv.FormatBool(r.Converged),
				strconv.FormatUint(r.Cycles, 10), strconv.FormatUint(r.Clamped, 10), strconv.FormatBool(r.Conserved)}
		})
}

// CPUProxyCSV renders the CPU power-proxy study.
func CPUProxyCSV(rows []CPUProxyRow) Table {
	return table([]string{"phase", "estimate_mw", "coin_target"}, rows, func(r CPUProxyRow) []string {
		return []string{r.Phase, ftoa(r.EstimateMW), strconv.FormatInt(r.Target, 10)}
	})
}

// DroopCSV renders the UVFR-vs-conventional droop contrast.
func DroopCSV(rows []DroopRow) Table {
	return table([]string{"droop_mv", "uvfr_before_mhz", "uvfr_during_mhz", "conventional_violated",
		"guardband_penalty_pct"}, rows,
		func(r DroopRow) []string {
			return []string{ftoa(r.DroopV * 1000), ftoa(r.UVFRBeforeMHz), ftoa(r.UVFRDuringMHz),
				strconv.FormatBool(r.ConventionalViolated), ftoa(r.GuardbandPenaltyPct)}
		})
}
