package coin

import (
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
)

// baseConfig returns a small, fast emulator configuration for tests.
func baseConfig(d int) Config {
	return Config{
		Mesh:            mesh.Square(d, true),
		Mode:            OneWay,
		RefreshInterval: 32,
		RandomPairing:   true,
		Threshold:       1.5,
	}
}

func runOnce(t *testing.T, cfg Config, seed uint64, coinsPerTile int64) Result {
	t.Helper()
	src := rng.New(seed)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	maxes := UniformMaxes(n, 32)
	a := RandomAssignment(src, maxes, int64(n)*coinsPerTile)
	e.Init(a)
	return e.Run()
}

func TestOneWayConvergesOnSmallMesh(t *testing.T) {
	cfg := baseConfig(4)
	cfg.StopAtConvergence = true
	res := runOnce(t, cfg, 1, 16)
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.ConvergenceCycles == 0 || res.PacketsToConvergence == 0 {
		t.Fatalf("no work recorded: %+v", res)
	}
}

func TestFourWayConvergesOnSmallMesh(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Mode = FourWay
	cfg.StopAtConvergence = true
	res := runOnce(t, cfg, 2, 16)
	if !res.Converged {
		t.Fatalf("4-way did not converge: %+v", res)
	}
}

func TestCoinConservationAcrossRun(t *testing.T) {
	for _, mode := range []Mode{OneWay, FourWay} {
		for seed := uint64(0); seed < 5; seed++ {
			cfg := baseConfig(5)
			cfg.Mode = mode
			res := runOnce(t, cfg, seed, 10)
			if res.CoinsStart != res.CoinsEnd {
				t.Fatalf("%v seed %d: coins %d -> %d (not conserved)",
					mode, seed, res.CoinsStart, res.CoinsEnd)
			}
			if !res.Conserved() {
				t.Fatalf("%v seed %d: pool violation %d on a healthy run",
					mode, seed, res.PoolViolation)
			}
		}
	}
}

func TestQuiescedRunReachesQuantizationError(t *testing.T) {
	// With random pairing enabled, every tile converges to the target
	// within the 1-coin quantization limit (Fig. 7, red histograms).
	cfg := baseConfig(5)
	res := runOnce(t, cfg, 3, 16)
	if res.WorstTileErr >= 2.0 {
		t.Fatalf("worst tile error %.2f, want < 2 coins", res.WorstTileErr)
	}
	if res.FinalErr >= 1.0 {
		t.Fatalf("final global error %.2f, want < 1", res.FinalErr)
	}
}

func TestHomogeneousUniformTargetWithinOneCoin(t *testing.T) {
	// Equal maxes and a pool divisible by N: every tile converges to the
	// equal split within the 1-coin quantization limit (Fig. 7 / Fig. 19:
	// residual error due to quantization of about one coin).
	cfg := baseConfig(4)
	cfg.Threshold = 0.5
	src := rng.New(7)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	a := RandomAssignment(src, UniformMaxes(n, 8), int64(n)*4)
	e.Init(a)
	res := e.Run()
	if res.CoinsEnd != int64(n)*4 {
		t.Fatalf("pool not conserved: %+v", res)
	}
	has, _ := e.Snapshot()
	for i, h := range has {
		if h < 3 || h > 5 {
			t.Fatalf("tile %d holds %d coins, want 4 +/- 1 (res %+v)", i, h, res)
		}
	}
}

func TestDeadlockWithoutRandomPairing(t *testing.T) {
	// Construct the deadlock of Sec. III-E: an active tile surrounded by
	// inactive tiles cannot reach the rest of the SoC without random
	// pairing. On an open (non-torus) 5x5 mesh, tile 12 (center) is
	// isolated by a ring of max=0 tiles; surplus coins on tile 0 can never
	// flow to it through neighbors-only exchanges... but inactive tiles
	// relinquish coins yet cannot hold targets, so the error stalls at a
	// local minimum.
	m := mesh.New(5, 5, false)
	maxes := make([]int64, 25)
	for i := range maxes {
		maxes[i] = 16
	}
	// Ring around center tile 12: indices 6,7,8,11,13,16,17,18 inactive.
	for _, i := range []int{6, 7, 8, 11, 13, 16, 17, 18} {
		maxes[i] = 0
	}
	has := make([]int64, 25)
	has[0] = 160 // all coins far from the center

	mk := func(pairing bool) Result {
		cfg := Config{
			Mesh:            m,
			Mode:            OneWay,
			RefreshInterval: 32,
			RandomPairing:   pairing,
			Threshold:       1.0,
			MaxCycles:       400000,
		}
		e := NewEmulator(cfg, rng.New(11))
		hc := make([]int64, len(has))
		copy(hc, has)
		e.Init(Assignment{Max: maxes, Has: hc})
		return e.Run()
	}

	without := mk(false)
	with := mk(true)
	if with.WorstTileErr >= without.WorstTileErr && without.WorstTileErr > 2 {
		t.Fatalf("random pairing did not improve residual error: with=%.2f without=%.2f",
			with.WorstTileErr, without.WorstTileErr)
	}
	if with.FinalErr >= 1.5 {
		t.Fatalf("with random pairing, final error %.2f still high", with.FinalErr)
	}
}

func TestShiftRegisterPairingAlsoConverges(t *testing.T) {
	cfg := baseConfig(5)
	cfg.Pairing = PairShiftRegister
	res := runOnce(t, cfg, 13, 12)
	if res.FinalErr >= 1.5 {
		t.Fatalf("shift-register pairing residual error %.2f", res.FinalErr)
	}
}

func TestDynamicTimingReducesSteadyStatePackets(t *testing.T) {
	// Fig. 6: dynamic timing reduces total packet exchanges because
	// already-converged regions stop generating traffic.
	run := func(dynamic bool) Result {
		cfg := baseConfig(6)
		cfg.DynamicTiming = dynamic
		cfg.Threshold = 1.0
		src := rng.New(17)
		e := NewEmulator(cfg, src)
		n := cfg.Mesh.N()
		a := RandomAssignment(src, UniformMaxes(n, 32), int64(n)*16)
		e.Init(a)
		return e.Run()
	}
	conv := run(false)
	dyn := run(true)
	if !conv.Converged || !dyn.Converged {
		t.Fatalf("runs did not converge: %+v / %+v", conv, dyn)
	}
	if dyn.TotalPackets >= conv.TotalPackets {
		t.Fatalf("dynamic timing sent %d packets, conventional %d — expected fewer",
			dyn.TotalPackets, conv.TotalPackets)
	}
}

func TestConvergenceScalesSubLinearly(t *testing.T) {
	// Fig. 3's headline: time to convergence scales ~ sqrt(N), i.e. with
	// d, not with N. Quadrupling the tile count (d: 4 -> 8) must grow the
	// convergence time far less than 4x.
	avg := func(d int) float64 {
		var sum float64
		const trials = 5
		for s := uint64(0); s < trials; s++ {
			cfg := baseConfig(d)
			cfg.StopAtConvergence = true
			res := runOnce(t, cfg, 100+s, 16)
			if !res.Converged {
				t.Fatalf("d=%d seed=%d did not converge", d, s)
			}
			sum += float64(res.ConvergenceCycles)
		}
		return sum / trials
	}
	t4 := avg(4)
	t8 := avg(8)
	if ratio := t8 / t4; ratio > 3.5 {
		t.Fatalf("time ratio for 4x tiles = %.2f, want sub-linear (<3.5)", ratio)
	}
}

func TestSetMaxTriggersRedistribution(t *testing.T) {
	// Activity change: after convergence, ending one tile's execution
	// (max -> 0) must redistribute its coins and re-converge.
	cfg := baseConfig(4)
	// Tight threshold so the SetMax disturbance (E = 1.0 on this config)
	// re-arms convergence detection rather than passing immediately.
	cfg.Threshold = 0.5
	src := rng.New(19)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	maxes := UniformMaxes(n, 16)
	e.Init(ConvergedAssignment(maxes, int64(n)*8))
	res := e.Run()
	if !res.Converged {
		t.Fatalf("converged start not detected: %+v", res)
	}
	e.SetMax(0, 0)
	res = e.Run()
	has, _ := e.Snapshot()
	if has[0] > 1 {
		t.Fatalf("tile 0 still holds %d coins after deactivation", has[0])
	}
	if e.ResponseCycles() == 0 {
		t.Fatal("response time not recorded after SetMax")
	}
	if res.CoinsEnd != int64(n)*8 {
		t.Fatalf("pool changed: %d", res.CoinsEnd)
	}
	if !res.Conserved() {
		t.Fatalf("pool violation %d after SetMax churn", res.PoolViolation)
	}
}

func TestHeterogeneousMaxesProperties(t *testing.T) {
	src := rng.New(23)
	maxes := HeterogeneousMaxes(src, 100, 4, 8)
	counts := map[int64]int{}
	for _, m := range maxes {
		counts[m]++
	}
	if len(counts) != 4 {
		t.Fatalf("distinct levels = %d, want 4", len(counts))
	}
	for _, lv := range []int64{8, 16, 24, 32} {
		if counts[lv] != 25 {
			t.Fatalf("level %d count = %d, want 25", lv, counts[lv])
		}
	}
}

func TestHeterogeneityIncreasesStartError(t *testing.T) {
	// Fig. 8: higher accType means larger start_error for the same pool.
	src := rng.New(29)
	n := 100
	startErr := func(accTypes int) float64 {
		maxes := HeterogeneousMaxes(src.Split(), n, accTypes, 8)
		a := RandomAssignment(src.Split(), maxes, int64(n)*8)
		e, _ := GlobalError(a.Has, a.Max)
		return e
	}
	e1 := startErr(1)
	e8 := startErr(8)
	if e8 <= e1 {
		t.Fatalf("start error did not grow with heterogeneity: acc1=%.2f acc8=%.2f", e1, e8)
	}
}

func TestConvergedAssignmentIsExact(t *testing.T) {
	maxes := []int64{4, 8, 12, 0}
	a := ConvergedAssignment(maxes, 24)
	if a.TotalCoins() != 24 {
		t.Fatalf("pool = %d", a.TotalCoins())
	}
	if a.Has[3] != 0 {
		t.Fatalf("inactive tile got %d coins", a.Has[3])
	}
	mean, _ := GlobalError(a.Has, a.Max)
	if mean >= 1.0 {
		t.Fatalf("converged assignment error %.2f", mean)
	}
}

func TestRunBeforeInitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run before Init did not panic")
		}
	}()
	NewEmulator(baseConfig(3), rng.New(1)).Run()
}

func TestDoubleInitPanics(t *testing.T) {
	cfg := baseConfig(3)
	src := rng.New(1)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	a := RandomAssignment(src, UniformMaxes(n, 8), 32)
	e.Init(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Init did not panic")
		}
	}()
	e.Init(a)
}

func TestModeString(t *testing.T) {
	if OneWay.String() != "1-way" || FourWay.String() != "4-way" {
		t.Fatal("mode names wrong")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := baseConfig(4)
	cfg.StopAtConvergence = true
	a := runOnce(t, cfg, 42, 16)
	b := runOnce(t, cfg, 42, 16)
	if a != b {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
}
