package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"blitzcoin/internal/sweep"
)

// renderRows flattens an experiment's output to the exact text a figure
// prints, so "identical rows" means byte-identical user-visible output.
func renderRows[T fmt.Stringer](rows []T) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// unitTrials runs trial over a point-major unit axis, trials units per
// point, in one sweep.Map: the way the registry runs Fig. 7 and the fault
// study, locally and shard by shard.
func unitTrials[P, T any](points []P, trials int, trial func(p P, t int) T) []T {
	return sweep.Map(context.Background(), len(points)*trials, 0, func(g int) T {
		return trial(points[g/trials], g%trials)
	})
}

// fig07Rows computes the Fig. 7 rows from the figure's trial units.
func fig07Rows(ns []int, trials int, seed uint64) []Fig07Row {
	points := Fig07Points(ns)
	return Fig07Assemble(points, trials, unitTrials(points, trials, func(p Fig07Point, t int) float64 {
		return Fig07Trial(p, t, seed)
	}))
}

// faultRows computes the fault-study rows from the study's trial units.
func faultRows(ds []int, dropRates []float64, trials int, seed uint64) []FaultRow {
	points := FaultPoints(ds, dropRates)
	return FaultAssemble(points, trials, unitTrials(points, trials, func(p FaultPoint, t int) FaultTrial {
		return FaultStudyTrial(p, t, seed)
	}))
}

// withParallelism runs f under a temporary sweep default.
func withParallelism(p int, f func() string) string {
	sweep.SetDefaultParallelism(p)
	defer sweep.SetDefaultParallelism(0)
	return f()
}

// The sweep engine's core contract: because every trial's RNG derives from
// the trial index and accumulation is serial in index order, the rendered
// rows of every figure are byte-identical at parallelism 1, 4, and 8.
// Under `go test -race` this also exercises the worker pool for data races
// across the emulator, NoC, kernel, and SoC layers.
func TestSweepParallelismDoesNotChangeRows(t *testing.T) {
	cases := []struct {
		name string
		run  func() string
	}{
		{"Fig03", func() string {
			return renderRows(Fig03(context.Background(), []int{4, 8}, 6, 1))
		}},
		{"Fig07", func() string {
			rows := fig07Rows([]int{100}, 6, 1)
			var b strings.Builder
			for _, r := range rows {
				b.WriteString(r.String())
				b.WriteByte('\n')
				b.WriteString(r.Hist.String()) // histograms must match bin-for-bin
			}
			return b.String()
		}},
		{"FaultStudy", func() string {
			return renderRows(faultRows([]int{6}, []float64{0, 0.01}, 4, 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := withParallelism(1, tc.run)
			for _, p := range []int{4, 8} {
				if got := withParallelism(p, tc.run); got != serial {
					t.Errorf("parallelism %d changed the rows:\n--- serial ---\n%s--- parallel ---\n%s",
						p, serial, got)
				}
			}
		})
	}
}
