package experiments

import (
	"context"
	"testing"
)

// The acceptance cell of the robustness extension: on the 10x10 torus at 1%
// PM-plane drops, every trial converges (Err < 1.5) with the pool conserved,
// and the recovery counters show the machinery actually worked for it.
func TestFaultStudyAcceptanceCell(t *testing.T) {
	rows := faultRows([]int{10}, []float64{0, 0.01}, 3, 1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	clean, lossy := rows[0], rows[1]
	for _, r := range rows {
		if r.Converged != r.Trials {
			t.Fatalf("drop=%.2f: only %d/%d converged", r.DropRate, r.Converged, r.Trials)
		}
		if r.Conserved != r.Trials {
			t.Fatalf("drop=%.2f: only %d/%d conserved the pool", r.DropRate, r.Conserved, r.Trials)
		}
	}
	if lossy.MeanDropped == 0 || lossy.MeanRetries == 0 {
		t.Fatalf("1%% cell injected no faults: %s", lossy)
	}
	if clean.MeanDropped != 0 || clean.MeanRetries != 0 {
		t.Fatalf("0%% cell saw faults: %s", clean)
	}
	// Loss costs time but not convergence: graceful, not cliff-edge.
	if lossy.MeanCycles > clean.MeanCycles*10 {
		t.Fatalf("drop collapse: %v -> %v cycles", clean.MeanCycles, lossy.MeanCycles)
	}
}

// Degraded mode degrades gracefully: every kill count completes the
// workload, re-queues the interrupted tasks, and holds the cap excursion
// within the recovery bound the soc tests establish.
func TestDegradedSoCGracefulDegradation(t *testing.T) {
	rows := DegradedSoC(context.Background(), 1)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Res.TilesKilled != r.Kills {
			t.Fatalf("kills=%d but TilesKilled=%d", r.Kills, r.Res.TilesKilled)
		}
		if !r.Res.Completed {
			t.Fatalf("kills=%d: workload did not complete: %s", r.Kills, r.Res.String())
		}
		if r.Exc20 > 2_000 {
			t.Fatalf("kills=%d: >20%% cap excursion for %d cycles", r.Kills, r.Exc20)
		}
	}
	// Losing tiles costs makespan; it must not gain it.
	if rows[3].Res.ExecCycles <= rows[0].Res.ExecCycles {
		t.Fatalf("3 kills faster than healthy: %d <= %d cycles",
			rows[3].Res.ExecCycles, rows[0].Res.ExecCycles)
	}
	if rows[3].Res.TasksRequeued == 0 {
		t.Fatal("3 kills re-queued no tasks")
	}
}
