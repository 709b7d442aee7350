package coin

import (
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
)

// thermalRig runs a hotspot scenario: every tile active, all coins in one
// corner, so without a guard the hotspot neighborhood would briefly hold
// nearly the whole pool.
func thermalRig(t *testing.T, cap int64, seed uint64) (*Emulator, Result) {
	t.Helper()
	cfg := Config{
		Mesh:            mesh.Square(6, true),
		Mode:            OneWay,
		RefreshInterval: 32,
		RandomPairing:   true,
		Threshold:       1.0,
		ThermalCap:      cap,
	}
	src := rng.New(seed)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	e.Init(HotspotAssignment(src, UniformMaxes(n, 16), int64(n)*8))
	res := e.Run()
	return e, res
}

func TestThermalCapConservesCoins(t *testing.T) {
	_, res := thermalRig(t, 60, 1)
	if res.CoinsStart != res.CoinsEnd {
		t.Fatalf("thermal guard broke conservation: %d -> %d", res.CoinsStart, res.CoinsEnd)
	}
}

func TestThermalCapBoundsNeighborhoods(t *testing.T) {
	// After quiescence, no 5-tile neighborhood may exceed the cap (the
	// guard acts on observed counts, so allow one coin of staleness).
	const cap = 60
	e, _ := thermalRig(t, cap, 2)
	has, _ := e.Snapshot()
	for i := range has {
		if load := e.neighborhoodLoad(i); load > cap+1 {
			t.Fatalf("tile %d neighborhood load %d exceeds cap %d", i, load, cap)
		}
	}
}

func TestThermalCapRejectsRecorded(t *testing.T) {
	e, _ := thermalRig(t, 40, 3)
	if e.ThermalRejects() == 0 {
		t.Fatal("a tight cap on a hotspot init should record rejects")
	}
	// A loose cap never triggers.
	e2, _ := thermalRig(t, 1<<30, 3)
	if e2.ThermalRejects() != 0 {
		t.Fatalf("loose cap recorded %d rejects", e2.ThermalRejects())
	}
}

func TestThermalCapStillConvergesWhenFeasible(t *testing.T) {
	// The fair allocation is 8 coins per tile, so a 5-tile neighborhood
	// holds 40 at equilibrium; a cap of 60 leaves room and the system
	// still converges.
	_, res := thermalRig(t, 60, 4)
	if !res.Converged {
		t.Fatalf("feasible thermal cap prevented convergence: %+v", res)
	}
}

func TestThermalDisabledMatchesBaseline(t *testing.T) {
	// Cap 0 disables the guard entirely; results equal the unguarded run.
	run := func(cap int64) Result {
		cfg := Config{
			Mesh:            mesh.Square(5, true),
			Mode:            OneWay,
			RefreshInterval: 32,
			RandomPairing:   true,
			Threshold:       1.5,
			ThermalCap:      cap,
		}
		src := rng.New(9)
		e := NewEmulator(cfg, src)
		n := cfg.Mesh.N()
		e.Init(RandomAssignment(src, UniformMaxes(n, 16), int64(n)*8))
		return e.Run()
	}
	a := run(0)
	b := run(1 << 40) // effectively unbounded
	if a.ConvergenceCycles != b.ConvergenceCycles || a.FinalErr != b.FinalErr {
		t.Fatalf("unbounded cap changed behavior: %+v vs %+v", a, b)
	}
}

func TestThermalCapSlowsButDoesNotDeadlockTightCase(t *testing.T) {
	// An infeasibly tight cap (below the fair neighborhood load) cannot
	// converge to the fair allocation, but must not break conservation or
	// livelock the emulator.
	e, res := thermalRig(t, 20, 5)
	if res.CoinsStart != res.CoinsEnd {
		t.Fatalf("conservation broken: %+v", res)
	}
	has, _ := e.Snapshot()
	var total int64
	for _, h := range has {
		total += h
	}
	if total != res.CoinsEnd {
		t.Fatal("snapshot disagrees with result")
	}
}
