package soc

import (
	"math"

	"blitzcoin/internal/coin"
	"blitzcoin/internal/controller"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

// bcAdapter exposes the distributed coin-exchange emulator through the
// controller.Controller interface so the SoC harness treats BlitzCoin and
// the centralized baselines uniformly. Every tile of the mesh participates
// in the exchange fabric; non-accelerator tiles keep max = 0 permanently,
// matching the fixed allocation the paper reserves for them (Sec. IV-C).
type bcAdapter struct {
	emu       *coin.Emulator
	specs     []controller.TileSpec
	byTile    map[int]int
	budget    float64
	mWPerCoin float64
	pool      int64

	onAlloc   func(tile int, mw float64)
	responses []sim.Cycles
	started   bool
}

var _ controller.Controller = (*bcAdapter)(nil)

// newBCAdapter builds the adapter over a shared kernel and network. The
// coin value is sized so the hungriest tile's full power fits in the 6-bit
// counter (63 coins), and the pool quantizes the budget at that value.
func newBCAdapter(k *sim.Kernel, net *noc.Network, specs []controller.TileSpec,
	budgetMW float64, src *rng.Source, refresh sim.Cycles, threshold float64) *bcAdapter {

	var maxP float64
	for _, s := range specs {
		if s.PMaxMW > maxP {
			maxP = s.PMaxMW
		}
	}
	cv := maxP / 63
	pool := int64(budgetMW/cv + 0.5)

	cfg := coin.Config{
		Mesh:            net.Mesh(),
		Mode:            coin.OneWay,
		RefreshInterval: refresh,
		DynamicTiming:   true,
		RandomPairing:   true,
		Threshold:       threshold,
		// Hardware semantics: 6-bit coin registers, and convergence is
		// judged on allocation deficits — surplus coins parked on idle
		// tiles are not a power-allocation error.
		CoinCap:     63,
		DeficitOnly: true,
	}
	a := &bcAdapter{
		emu:       coin.NewEmulatorOn(k, net, cfg, src),
		specs:     specs,
		byTile:    make(map[int]int, len(specs)),
		budget:    budgetMW,
		mWPerCoin: cv,
		pool:      pool,
	}
	for i, s := range specs {
		a.byTile[s.Tile] = i
	}
	a.emu.SetOnConverged(func(resp sim.Cycles) {
		a.responses = append(a.responses, resp)
	})
	return a
}

func (a *bcAdapter) Name() string      { return "BC" }
func (a *bcAdapter) BudgetMW() float64 { return a.budget }

// Start initializes the exchange fabric: all tiles idle (max 0) with the
// coin pool parked evenly on the managed tiles, ready to flow to whichever
// tile activates first.
func (a *bcAdapter) Start() {
	if a.started {
		return
	}
	a.started = true
	meshN := a.meshN()
	maxes := make([]int64, meshN)
	has := make([]int64, meshN)
	per := a.pool / int64(len(a.specs))
	rem := a.pool - per*int64(len(a.specs))
	for i, s := range a.specs {
		has[s.Tile] = per
		if int64(i) < rem {
			has[s.Tile]++
		}
	}
	a.emu.SetOnChange(func(tile int, coins int64) {
		if a.onAlloc == nil {
			return
		}
		if _, ok := a.byTile[tile]; ok {
			a.onAlloc(tile, float64(coins)*a.mWPerCoin)
		}
	})
	a.emu.Init(coin.Assignment{Max: maxes, Has: has})
}

// meshN returns the emulator's tile count (the full SoC mesh).
func (a *bcAdapter) meshN() int {
	has, _ := a.emu.Snapshot()
	return len(has)
}

// SetTarget converts the power target to a coin target and injects the
// activity change into the exchange fabric.
func (a *bcAdapter) SetTarget(tile int, mw float64) {
	if _, ok := a.byTile[tile]; !ok {
		panic("soc: SetTarget on unmanaged tile")
	}
	coins := int64(math.Round(mw / a.mWPerCoin))
	if coins > 63 {
		coins = 63
	}
	if coins < 0 {
		coins = 0
	}
	a.emu.SetMax(tile, coins)
}

func (a *bcAdapter) OnAllocation(fn func(tile int, mw float64)) { a.onAlloc = fn }

func (a *bcAdapter) ResponseSamples() []sim.Cycles { return a.responses }

// attachFaults hardens the exchange fabric against the runner's fault
// injector: the emulator registers its kill/stuck/slow reactions and enables
// its timeout, watchdog, and audit machinery. Must be called before Start.
func (a *bcAdapter) attachFaults(in *fault.Injector) { a.emu.AttachFaults(in) }

// Emulator exposes the underlying coin emulator for degraded-mode inspection
// (pool conservation, per-tile liveness) by tests and experiments.
func (a *bcAdapter) Emulator() *coin.Emulator { return a.emu }
