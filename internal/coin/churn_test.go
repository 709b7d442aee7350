package coin

import (
	"testing"
	"testing/quick"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
)

// TestChurnConservationProperty drives the emulator through arbitrary
// sequences of activity changes interleaved with running time, and checks
// the invariant the whole design rests on: the coin pool is conserved
// exactly no matter how the targets churn.
func TestChurnConservationProperty(t *testing.T) {
	f := func(seed uint16, script []uint16) bool {
		cfg := Config{
			Mesh:            mesh.Square(4, true),
			Mode:            OneWay,
			RefreshInterval: 32,
			RandomPairing:   true,
			DynamicTiming:   true,
			Threshold:       1.0,
			MaxCycles:       100000,
		}
		src := rng.New(uint64(seed) + 1)
		e := NewEmulator(cfg, src)
		n := cfg.Mesh.N()
		const pool = 128
		e.Init(RandomAssignment(src, UniformMaxes(n, 16), pool))

		for _, op := range script {
			tile := int(op) % n
			max := int64(op>>4) % 64
			e.SetMax(tile, max)
			// Let the fabric react for a random-ish slice of time.
			e.Kernel().Run(e.Kernel().Now() + sim1 + uint64(op%977))
		}
		res := e.Run()
		return res.CoinsEnd == pool && res.Conserved()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sim1 keeps the churn slices non-zero.
const sim1 = 16

// TestChurnEventuallyReconverges: after arbitrary churn stops, the system
// settles back to an allocation whose deficit error is below threshold.
func TestChurnEventuallyReconverges(t *testing.T) {
	cfg := Config{
		Mesh:            mesh.Square(5, true),
		Mode:            OneWay,
		RefreshInterval: 32,
		RandomPairing:   true,
		Threshold:       1.0,
		CoinCap:         63,
		DeficitOnly:     true,
	}
	src := rng.New(77)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	e.Init(RandomAssignment(src, make([]int64, n), 126)) // all idle at start

	churn := rng.New(123)
	for i := 0; i < 40; i++ {
		tile := churn.Intn(n)
		var max int64
		if churn.Bool() {
			max = 10 + churn.Int63n(50)
		}
		e.SetMax(tile, max)
		e.Kernel().Run(e.Kernel().Now() + 200)
	}
	// Ensure at least one tile is active at the end so convergence is
	// nontrivial.
	e.SetMax(0, 40)
	res := e.Run()
	if !res.Converged {
		t.Fatalf("did not reconverge after churn: %+v", res)
	}
	if res.CoinsEnd != 126 {
		t.Fatalf("pool leaked: %d", res.CoinsEnd)
	}
	if !res.Conserved() {
		t.Fatalf("pool violation %d after churn", res.PoolViolation)
	}
}

// TestChurnNegativeTransientsRecover: transient negative counts (the
// underflow case of Sec. IV-A) may appear during churn but never persist
// into the quiesced state.
func TestChurnNegativeTransientsRecover(t *testing.T) {
	cfg := Config{
		Mesh:            mesh.Square(4, true),
		Mode:            OneWay,
		RefreshInterval: 8, // aggressive exchanges increase collision odds
		RandomPairing:   true,
		Threshold:       1.0,
	}
	src := rng.New(5)
	e := NewEmulator(cfg, src)
	n := cfg.Mesh.N()
	e.Init(RandomAssignment(src, UniformMaxes(n, 32), int64(n)*16))

	churn := rng.New(9)
	for i := 0; i < 30; i++ {
		e.SetMax(churn.Intn(n), churn.Int63n(64))
		e.Kernel().Run(e.Kernel().Now() + 64)
	}
	e.Run()
	has, _ := e.Snapshot()
	for i, h := range has {
		if h < 0 {
			t.Fatalf("tile %d quiesced with negative count %d", i, h)
		}
	}
}
