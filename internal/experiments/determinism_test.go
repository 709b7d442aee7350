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
			rows := Fig07(context.Background(), []int{100}, 6, 1)
			var b strings.Builder
			for _, r := range rows {
				b.WriteString(r.String())
				b.WriteByte('\n')
				b.WriteString(r.Hist.String()) // histograms must match bin-for-bin
			}
			return b.String()
		}},
		{"FaultStudy", func() string {
			return renderRows(FaultStudy(context.Background(), []int{6}, []float64{0, 0.01}, 4, 1))
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
