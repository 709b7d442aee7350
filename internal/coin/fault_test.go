package coin

import (
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/rng"
)

// runFaulted builds, initializes, and runs an emulator with the given fault
// model, returning both the result and the emulator for state inspection.
func runFaulted(t *testing.T, cfg Config, fc *fault.Config, seed uint64, coinsPerTile int64) (Result, *Emulator) {
	t.Helper()
	cfg.Faults = fc
	src := rng.New(seed)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	maxes := UniformMaxes(n, 32)
	a := RandomAssignment(src, maxes, int64(n)*coinsPerTile)
	e.Init(a)
	return e.Run(), e
}

// Acceptance criterion: with a 1% plane-5 drop rate on a 10x10 torus, the
// hardened emulator still converges (Err < 1.5) and the pool is exactly
// conserved once the audit has repaired the leaked coins.
func TestConvergesUnderOnePercentDrops10x10(t *testing.T) {
	cfg := baseConfig(10)
	cfg.MaxCycles = 400_000
	res, e := runFaulted(t, cfg, &fault.Config{Seed: 1, DropRate: 0.01}, 1, 16)
	if res.Dropped == 0 {
		t.Fatalf("fault model injected no drops: %+v", res)
	}
	if res.FinalErr >= 1.5 {
		t.Fatalf("did not converge under drops: FinalErr=%v (%+v)", res.FinalErr, res)
	}
	if !res.Conserved() {
		t.Fatalf("pool not conserved after repair: violation=%d minted=%d burned=%d",
			res.PoolViolation, res.CoinsMinted, res.CoinsBurned)
	}
	if busy, locked := e.busyCount, e.lockedCount; busy != 0 || locked != 0 {
		t.Fatalf("stranded flags at end of run: busy=%d locked=%d", busy, locked)
	}
}

// Killing tiles mid-run must not break the survivors: the audit re-mints the
// dead tiles' stranded coins onto live tiles, the error metric re-converges
// over the survivors, and no flag stays stuck.
func TestTileKillRecovery(t *testing.T) {
	for _, mode := range []Mode{OneWay, FourWay} {
		cfg := baseConfig(5)
		cfg.Mode = mode
		cfg.MaxCycles = 300_000
		fc := &fault.Config{
			TileKills: []fault.TileFault{{Tile: 6, At: 3000}, {Tile: 12, At: 5000}, {Tile: 18, At: 5000}},
		}
		res, e := runFaulted(t, cfg, fc, 3, 10)
		if res.TilesDead != 3 {
			t.Fatalf("%v: TilesDead=%d, want 3", mode, res.TilesDead)
		}
		if !res.Conserved() {
			t.Fatalf("%v: pool not repaired after kills: violation=%d minted=%d",
				mode, res.PoolViolation, res.CoinsMinted)
		}
		if res.CoinsMinted == 0 {
			t.Fatalf("%v: kills strand coins, audit should have minted: %+v", mode, res)
		}
		if res.FinalErr >= cfg.Threshold {
			t.Fatalf("%v: survivors did not re-converge: FinalErr=%v", mode, res.FinalErr)
		}
		if busy, locked := e.busyCount, e.lockedCount; busy != 0 || locked != 0 {
			t.Fatalf("%v: stranded flags: busy=%d locked=%d", mode, busy, locked)
		}
		if !e.TileDead(6) || !e.TileDead(12) || !e.TileDead(18) {
			t.Fatalf("%v: kill schedule did not apply", mode)
		}
	}
}

// A 4-way center that dies can leave joined neighbors locked; the watchdog
// must free them so the run still quiesces cleanly.
func TestFourWayLockWatchdog(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Mode = FourWay
	cfg.RandomPairing = false
	cfg.MaxCycles = 200_000
	// Kill several tiles at staggered times to maximize the chance some die
	// exactly between collecting status replies and pushing updates.
	fc := &fault.Config{
		TileKills: []fault.TileFault{
			{Tile: 1, At: 1111}, {Tile: 6, At: 2222}, {Tile: 11, At: 3333},
		},
		DropRate: 0.05, Seed: 7,
	}
	res, e := runFaulted(t, cfg, fc, 4, 12)
	if busy, locked := e.busyCount, e.lockedCount; busy != 0 || locked != 0 {
		t.Fatalf("stranded flags despite watchdog: busy=%d locked=%d (%+v)", busy, locked, res)
	}
	if !res.Conserved() {
		t.Fatalf("pool not repaired: violation=%d", res.PoolViolation)
	}
}

// Duplicated update packets apply their delta twice, drifting the pool; the
// audit must repair the drift so the global cap is re-enforced. A hotspot
// start keeps nonzero deltas flowing across the whole mesh, so duplications
// are guaranteed to strike coin-carrying packets (a converged mesh only
// exchanges zero-delta keep-alives, which duplicate harmlessly).
func TestDuplicationBurned(t *testing.T) {
	cfg := baseConfig(5)
	cfg.MaxCycles = 200_000
	cfg.Faults = &fault.Config{Seed: 5, DupRate: 0.25}
	src := rng.New(5)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	e.Init(HotspotAssignment(src, UniformMaxes(n, 32), int64(n)*10))
	res := e.Run()
	if e.NetworkStats().Duplicated == 0 {
		t.Fatalf("fault model injected no duplicates: %+v", res)
	}
	if res.AuditRepairs == 0 {
		t.Fatalf("duplicated coin-carrying packets should trigger audit repairs: %+v", res)
	}
	if !res.Conserved() {
		t.Fatalf("pool not repaired after duplication: violation=%d minted=%d burned=%d",
			res.PoolViolation, res.CoinsMinted, res.CoinsBurned)
	}
}

// A stuck coin register absorbs updates silently; the audit repairs the
// drift on its peers and the run still ends conserved.
func TestStuckCounterAudited(t *testing.T) {
	cfg := baseConfig(4)
	cfg.MaxCycles = 150_000
	fc := &fault.Config{StuckCounters: []fault.TileFault{{Tile: 5, At: 500}}}
	res, _ := runFaulted(t, cfg, fc, 6, 10)
	if !res.Conserved() {
		t.Fatalf("pool not repaired around stuck register: violation=%d", res.PoolViolation)
	}
}

// Link fail-stop: traffic reroutes nowhere (XY routing is static), so
// affected exchanges time out and the partners are eventually pruned. The
// pool must stay conserved and no tile may stay busy forever.
func TestLinkFailureRecovery(t *testing.T) {
	cfg := baseConfig(4)
	cfg.MaxCycles = 200_000
	fc := &fault.Config{LinkFails: []fault.LinkFault{
		{A: 5, B: 6, At: 2000}, {A: 9, B: 10, At: 2000},
	}}
	res, e := runFaulted(t, cfg, fc, 7, 10)
	if !res.Conserved() {
		t.Fatalf("pool not conserved under link failure: violation=%d", res.PoolViolation)
	}
	if busy, locked := e.busyCount, e.lockedCount; busy != 0 || locked != 0 {
		t.Fatalf("stranded flags: busy=%d locked=%d", busy, locked)
	}
}

// Delay faults stress the timeout machinery: late acks must be recognized as
// stale without losing their coins.
func TestDelayedPacketsConserve(t *testing.T) {
	cfg := baseConfig(5)
	cfg.MaxCycles = 200_000
	fc := &fault.Config{Seed: 9, DelayRate: 0.2, DelayMax: 512}
	res, e := runFaulted(t, cfg, fc, 8, 10)
	if !res.Conserved() {
		t.Fatalf("pool not conserved under delays: violation=%d", res.PoolViolation)
	}
	if busy, locked := e.busyCount, e.lockedCount; busy != 0 || locked != 0 {
		t.Fatalf("stranded flags: busy=%d locked=%d", busy, locked)
	}
	if res.FinalErr >= cfg.Threshold {
		t.Fatalf("did not converge under delays: FinalErr=%v", res.FinalErr)
	}
}

// Fail-slow tiles stretch their exchange cadence but must not break
// convergence or conservation.
func TestFailSlowTiles(t *testing.T) {
	cfg := baseConfig(4)
	cfg.MaxCycles = 200_000
	fc := &fault.Config{SlowTiles: []fault.SlowFault{
		{Tile: 3, At: 100, Factor: 8}, {Tile: 10, At: 100, Factor: 8},
	}}
	res, _ := runFaulted(t, cfg, fc, 10, 10)
	if !res.Conserved() {
		t.Fatalf("pool not conserved with fail-slow tiles: violation=%d", res.PoolViolation)
	}
	if res.FinalErr >= cfg.Threshold {
		t.Fatalf("did not converge with fail-slow tiles: FinalErr=%v", res.FinalErr)
	}
}

// Satellite: seeded-determinism regression. The same fault seed must
// reproduce bit-identical fault schedules and Result counters across runs —
// the "same seed, same run" convention extended to the fault layer.
func TestSeededFaultDeterminism(t *testing.T) {
	run := func() Result {
		cfg := baseConfig(6)
		cfg.MaxCycles = 150_000
		fc := &fault.Config{
			Seed:      42,
			DropRate:  0.02,
			DupRate:   0.01,
			DelayRate: 0.01,
			// All fault times are below the quiescence window (64x32 = 2048
			// cycles), so they are guaranteed to fire before the run can end.
			TileKills: []fault.TileFault{{Tile: 7, At: 1000}, {Tile: 20, At: 1800}},
			LinkFails: []fault.LinkFault{{A: 14, B: 15, At: 800}},
		}
		res, _ := runFaulted(t, cfg, fc, 99, 12)
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical fault seeds diverged:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.TilesDead != 2 {
		t.Fatalf("fault schedule did not execute: %+v", a)
	}
}

// Hardening must be inert when no faults are configured: a hardened-off run
// and the historical emulator path produce identical results (covered by
// TestDeterministicRuns), and a zero-fault injector must not change them
// either, because the injector draws from its own RNG stream.
func TestZeroFaultConfigMatchesHealthyRun(t *testing.T) {
	healthy := runOnce(t, baseConfig(5), 11, 10)
	cfg := baseConfig(5)
	// A nil-fault config attaches nothing: identical by construction.
	cfg.Faults = &fault.Config{}
	res := runOnce2(t, cfg, 11, 10)
	if healthy != res {
		t.Fatalf("zero-fault config perturbed the run:\n%+v\n%+v", healthy, res)
	}
}

func runOnce2(t *testing.T, cfg Config, seed uint64, coinsPerTile int64) Result {
	t.Helper()
	src := rng.New(seed)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	maxes := UniformMaxes(n, 32)
	a := RandomAssignment(src, maxes, int64(n)*coinsPerTile)
	e.Init(a)
	return e.Run()
}
