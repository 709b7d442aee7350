package soc

import (
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/workload"
)

// Acceptance criterion: killing 3 of the 9 tiles of the 3x3 SoC mid-workload
// must never leave the surviving tiles' total power above the cap beyond a
// bounded window. The killed set (two FFTs and a Viterbi) leaves at least one
// tile of every accelerator type alive, so the re-queued tasks can finish.
func TestDegradedModeKillThreeOfNine(t *testing.T) {
	cfg := SoC3x3(120, SchemeBC, 7)
	cfg.Faults = &fault.Config{
		TileKills: []fault.TileFault{
			{Tile: 1, At: 60_000},  // FFT
			{Tile: 3, At: 100_000}, // Viterbi
			{Tile: 7, At: 100_000}, // FFT
		},
	}
	r := New(cfg)
	g := workload.Repeat(workload.AutonomousVehicleParallel(), 4)
	res := r.Run(g)

	if res.TilesKilled != 3 {
		t.Fatalf("TilesKilled=%d, want 3 (%s)", res.TilesKilled, res.String())
	}
	if !res.Completed {
		t.Fatalf("survivors did not finish the workload: %s", res.String())
	}
	// The budget must be re-enforced within a bounded window. The tolerance
	// band matters: under full occupancy the harness's idle-power floor plus
	// UVFR ramp overlap keeps even healthy runs >5% over budget for long
	// stretches, so the cap criterion lives at the 20%/35% bands the healthy
	// tests also use. There, any excursion must die within roughly one audit
	// period (256 cycles) plus regulator settling (<=512 cycles).
	const boundCycles = 2_000 // ~2.5 us at 800 MHz, generous margin
	if exc := res.LongestCapExcursion(0.20); exc > boundCycles {
		t.Fatalf("power stayed >20%% above cap for %d cycles, bound %d", exc, boundCycles)
	}
	if exc := res.LongestCapExcursion(0.35); exc > boundCycles/2 {
		t.Fatalf("power stayed >35%% above cap for %d cycles", exc)
	}
	// Dead tiles draw nothing from the moment they die.
	for _, name := range []string{"t01-FFT", "t03-Viterbi", "t07-FFT"} {
		if p := res.Recorder.Series(name).Last(); p != 0 {
			t.Fatalf("killed tile %s still draws %.2f mW", name, p)
		}
	}
	// The kill propagated into the coin fabric, not just the harness.
	emu := r.Controller().(*bcAdapter).Emulator()
	for _, idx := range []int{1, 3, 7} {
		if !emu.TileDead(idx) {
			t.Fatalf("coin fabric does not know tile %d died", idx)
		}
	}
	if res.TasksRequeued == 0 {
		t.Fatal("kills at 60k/100k cycles should have caught running tasks")
	}
}

// A tile kill on a lossy plane: the run completes on the survivors,
// re-queues the task the kill caught, and re-enforces the cap within the
// same recovery bound.
func TestDegradedModeKillUnderDrops(t *testing.T) {
	cfg := SoC3x3(120, SchemeBC, 7)
	cfg.Faults = &fault.Config{Seed: 3, DropRate: 0.005, TileKills: []fault.TileFault{{Tile: 1, At: 60_000}}}
	res := New(cfg).Run(workload.Repeat(workload.AutonomousVehicleParallel(), 2))
	if !res.Completed {
		t.Fatalf("degraded run did not complete: %s", res.String())
	}
	if res.TilesKilled != 1 {
		t.Fatalf("TilesKilled=%d, want 1", res.TilesKilled)
	}
	if res.TasksRequeued == 0 {
		t.Fatal("kill at 60k cycles should have caught a running task")
	}
	if exc := res.LongestCapExcursion(0.20); exc > 2_000 {
		t.Fatalf(">20%% cap excursion for %d cycles", exc)
	}
}

// A lossy PM plane (1% drops) must not break the SoC harness: the hardened
// exchange retries through the loss and the workload completes under the cap.
func TestDegradedModePlaneDrops(t *testing.T) {
	cfg := SoC3x3(120, SchemeBC, 7)
	cfg.Faults = &fault.Config{Seed: 3, DropRate: 0.01}
	r := New(cfg)
	res := r.Run(workload.Repeat(workload.AutonomousVehicleParallel(), 2))
	if !res.Completed {
		t.Fatalf("did not complete under 1%% drops: %s", res.String())
	}
	if res.CapExceeded(0.35) {
		t.Fatalf("cap broken under drops: peak %.1f mW", res.PeakPowerMW)
	}
	if res.NoC.Dropped == 0 {
		t.Fatal("fault model injected no drops")
	}
}

// Degraded-mode runs are as deterministic as healthy ones: the same fault
// seed reproduces the same schedule, makespan, and power profile.
func TestDegradedModeDeterministic(t *testing.T) {
	run := func() Result {
		cfg := SoC3x3(120, SchemeBC, 7)
		cfg.Faults = &fault.Config{
			Seed:      9,
			DropRate:  0.005,
			TileKills: []fault.TileFault{{Tile: 5, At: 50_000}},
		}
		return New(cfg).Run(workload.Repeat(workload.AutonomousVehicleParallel(), 2))
	}
	a, b := run(), run()
	if a.ExecCycles != b.ExecCycles || a.AvgPowerMW != b.AvgPowerMW ||
		a.TilesKilled != b.TilesKilled || a.TasksRequeued != b.TasksRequeued {
		t.Fatalf("same fault seed diverged:\n%s\n%s", a.String(), b.String())
	}
	if a.TilesKilled != 1 {
		t.Fatalf("kill did not fire: %s", a.String())
	}
}

// A zero-fault config must not perturb a healthy run: the injector draws from
// its own RNG stream and an empty schedule arms nothing.
func TestZeroFaultConfigMatchesHealthySoC(t *testing.T) {
	g := workload.AutonomousVehicleParallel()
	healthy := New(SoC3x3(120, SchemeBC, 7)).Run(g)
	cfg := SoC3x3(120, SchemeBC, 7)
	cfg.Faults = &fault.Config{}
	faulted := New(cfg).Run(g)
	if healthy.ExecCycles != faulted.ExecCycles || healthy.AvgPowerMW != faulted.AvgPowerMW {
		t.Fatalf("empty fault config perturbed the run:\n%s\n%s",
			healthy.String(), faulted.String())
	}
}
