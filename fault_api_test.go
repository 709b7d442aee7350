package blitzcoin

import "testing"

// The hardened exchange survives a lossy plane plus a mid-run tile kill:
// it still converges, and after audit repair the pool is conserved on the
// survivors.
func TestSimulateExchangeWithFaults(t *testing.T) {
	run := func() ExchangeResult {
		return SimulateExchange(ExchangeOptions{
			Dim:           10,
			Torus:         true,
			RandomPairing: true,
			Faults: &FaultOptions{
				Seed:      2,
				DropRate:  0.01,
				KillTiles: []TileFault{{Tile: 7, AtCycle: 1000}},
			},
			Seed: 1,
		})
	}
	r := run()
	if !r.Converged {
		t.Fatalf("did not converge under faults: %+v", r)
	}
	if !r.CoinsConserved || r.PoolViolation != 0 {
		t.Fatalf("pool not conserved: violation=%d", r.PoolViolation)
	}
	if r.Dropped == 0 || r.Retries == 0 {
		t.Fatalf("fault counters empty: dropped=%d retries=%d", r.Dropped, r.Retries)
	}
	if r.TilesDead != 1 {
		t.Fatalf("TilesDead=%d, want 1", r.TilesDead)
	}
	// Same options, same seed: bit-identical fault schedule and outcome.
	if r2 := run(); r != r2 {
		t.Fatalf("faulted run not deterministic:\n%+v\n%+v", r, r2)
	}
}

// A healthy run reports zero on every fault counter, with or without a nil
// fault model.
func TestSimulateExchangeHealthyCountersZero(t *testing.T) {
	r := SimulateExchange(ExchangeOptions{Dim: 6, Seed: 1, RandomPairing: true})
	if r.Dropped != 0 || r.Retries != 0 || r.TilesDead != 0 || r.AuditRepairs != 0 {
		t.Fatalf("healthy run has fault counters: %+v", r)
	}
	if !r.CoinsConserved {
		t.Fatal("healthy run not conserved")
	}
}

// RunSoC with a tile kill completes on the survivors; internal/soc's
// TestDegradedModeKillUnderDrops bounds the cap excursion of the same run.
func TestRunSoCWithFaults(t *testing.T) {
	r := RunSoC(SoCOptions{
		SoC:    "3x3",
		Scheme: BC,
		Repeat: 2,
		Faults: &FaultOptions{
			Seed:      3,
			DropRate:  0.005,
			KillTiles: []TileFault{{Tile: 1, AtCycle: 60_000}},
		},
		Seed: 7,
	})
	if !r.Completed {
		t.Fatalf("degraded run did not complete: %s", r)
	}
	if r.TilesKilled != 1 {
		t.Fatalf("TilesKilled=%d, want 1", r.TilesKilled)
	}
	if r.TasksRequeued == 0 {
		t.Fatal("kill at 60k cycles should have caught a running task")
	}
}
