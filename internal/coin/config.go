package coin

import (
	"fmt"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// Mode selects the exchange technique of Sec. III-B.
type Mode int

const (
	// OneWay exchanges coins with one neighbor at a time, rotating
	// round-robin (Algorithm 2). This is the preferred embodiment: 8
	// messages per rotation, pairwise-only transfers, simple arithmetic.
	OneWay Mode = iota
	// FourWay exchanges with all four neighbors at once (Algorithm 1):
	// request + status + update per neighbor, 12 messages per exchange.
	FourWay
)

// String names the mode as in the paper.
func (m Mode) String() string {
	switch m {
	case OneWay:
		return "1-way"
	case FourWay:
		return "4-way"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// PairingMode selects how random-pairing partners are chosen (Sec. III-D/E).
type PairingMode int

const (
	// PairUniform picks a uniformly random non-neighbor tile. This is the
	// emulator's model of the paper's "random pairing with a tile other
	// than one of its neighbors".
	PairUniform PairingMode = iota
	// PairShiftRegister cycles deterministically through all non-neighbor
	// tiles, matching the hardware implementation: "a shift-register that
	// eventually pairs all non-neighboring tiles", which bounds the time
	// to resolve any deadlock (Sec. III-E).
	PairShiftRegister
)

// Config parameterizes one emulator run.
type Config struct {
	// Mesh is the tile grid. Set Mesh.Torus for wrap-around neighbors.
	Mesh mesh.Mesh
	// Mode selects 1-way or 4-way exchange.
	Mode Mode

	// RefreshInterval is refreshCount: the base number of cycles between
	// exchange attempts by one tile.
	RefreshInterval sim.Cycles

	// DynamicTiming enables the exponential back-off of Sec. III-D: a
	// streak of exchanges that move zero coins scales the tile's interval up
	// by lambda; a productive exchange shrinks it (see timing).
	DynamicTiming bool

	// RandomPairing enables intermittent exchanges with non-neighbor
	// tiles, which eliminates local-minimum deadlocks (Sec. III-E).
	RandomPairing bool
	// RandomPairingEvery is the cadence in exchanges; the paper found
	// once every 16 exchanges sufficient. Zero selects 16.
	RandomPairingEvery int
	// Pairing selects the partner-selection rule.
	Pairing PairingMode

	// Threshold is the convergence criterion on the global error Err.
	// The paper uses 1.5 (Fig. 3), 1.0 (Fig. 6); must be positive.
	Threshold float64

	// MaxCycles bounds the run. Zero selects a generous default scaled to
	// the mesh diameter.
	MaxCycles sim.Cycles
	// StopAtConvergence ends the run at the first threshold crossing
	// instead of running to quiescence. Convergence-time experiments
	// (Figs. 3, 4, 6) use this; residual-error experiments (Fig. 7) run
	// to quiescence.
	StopAtConvergence bool

	// CoinCap, when positive, models the hardware coin register width: no
	// tile accepts coins beyond the cap in an exchange (the residue stays
	// with the partner), and per-tile targets are clamped to the cap. The
	// implementation's 6-bit counter corresponds to a cap of 63
	// (Sec. IV-A). Zero means unlimited, the algorithm-level setting of
	// the Sec. III experiments.
	CoinCap int64

	// ThermalCap, when positive, enables the local hotspot guard of
	// Sec. III-B: a tile rejects incoming coins from an exchange when its
	// own count plus its neighbors' (last observed) counts would exceed
	// the cap, bounding the power density of any 5-tile neighborhood.
	// Rejected coins stay with the exchange partner, so the pool is still
	// conserved. Zero disables the guard.
	ThermalCap int64

	// DeficitOnly switches the convergence metric from the paper's
	// symmetric per-tile error |has - alpha*max| to a deficit-only error
	// max(0, target - has). The SoC harness uses this: when the budget
	// exceeds what active tiles can hold, the surplus parks on idle tiles
	// and is not a power-allocation error — the LUT clamps at Fmax anyway.
	DeficitOnly bool

	// Faults, when non-nil, injects the given fault model into the
	// emulator's private network (NewEmulator only; NewEmulatorOn harnesses
	// build their own injector and call AttachFaults). A non-nil Faults
	// implies Harden.
	Faults *fault.Config

	// Harden enables the recovery machinery — exchange timeouts with
	// retry back-off, the participation-lock watchdog, neighbor-liveness
	// pruning, and the periodic coin-conservation audit — even without an
	// injected fault model. Healthy runs leave it off: the watchdog and
	// audit events would perturb the event interleaving, and the seed
	// experiments must stay bit-identical.
	Harden bool
}

// Protocol constants of the recovery and back-off machinery.
const (
	// lambda is the dynamic-timing back-off factor: an unproductive streak
	// doubles the tile's interval, up to timing.maxInterval.
	lambda = 2
	// retryBackoff scales a tile's interval up after each timed-out
	// exchange (capped at timing.maxInterval), so a partitioned tile does
	// not spam the fabric.
	retryBackoff = 2
	// neighborDeadAfter is how many consecutive timed-out exchanges with
	// the same partner mark it dead and prune it from the round-robin and
	// random-pairing sets.
	neighborDeadAfter = 4
)

// timing is the emulator's interval schedule, derived once at construction
// from RefreshInterval (R below) and the mesh.
type timing struct {
	// maxInterval caps the backed-off interval at 8R: deep sleeps would
	// starve the random-pairing cadence (which counts exchanges, not
	// cycles) and delay the wake-up of quiet regions when a coin wave
	// arrives, costing more time than the saved packets are worth.
	maxInterval sim.Cycles
	// shrinkK, R/2, is the additive interval decrease on a productive
	// exchange. A productive exchange first snaps a backed-off tile to R
	// and then keeps shrinking it by shrinkK per productive exchange, down
	// to minInterval — this is the "reduced refresh interval" of
	// Sec. III-D that makes actively converging regions exchange faster
	// than the conservative base rate.
	shrinkK sim.Cycles
	// minInterval floors the accelerated interval at R/8, at least 2
	// cycles.
	minInterval sim.Cycles
	// quiesceWindow, 64R: a run also ends once no coins have moved for
	// this many cycles and no exchange is in flight. It exceeds four
	// backed-off intervals (32R), so a dynamic-timing tile always gets to
	// exchange inside it.
	quiesceWindow sim.Cycles
	// auditInterval, 8R, is the period of the distributed
	// coin-conservation audit, which re-mints leaked coins and burns
	// duplicated ones against each tile's local target, so the pool is
	// repaired within a bounded number of refresh intervals after any
	// fault.
	auditInterval sim.Cycles
	// exchangeTimeout is how long a hardened initiator waits for its
	// exchange to complete before releasing busy and retrying: four
	// worst-case network round trips at noc.DefaultConfig latencies plus
	// 2R, so a merely-delayed reply almost never races the timeout.
	exchangeTimeout sim.Cycles
	// lockTimeout, 2x exchangeTimeout, is the participation-lock watchdog:
	// a tile locked by a 4-way center frees itself after this long,
	// surviving a center that died mid-exchange.
	lockTimeout sim.Cycles
}

// deriveTiming computes the interval schedule of a defaulted config.
func deriveTiming(cfg Config) timing {
	r := cfg.RefreshInterval
	net := noc.DefaultConfig()
	diam := sim.Cycles(cfg.Mesh.MaxHopDistance())
	exchange := 4*(net.RouterLatency+net.HopLatency*diam) + 2*r
	return timing{
		maxInterval:     8 * r,
		shrinkK:         r / 2,
		minInterval:     max(r/8, 2),
		quiesceWindow:   64 * r,
		auditInterval:   8 * r,
		exchangeTimeout: exchange,
		lockTimeout:     2 * exchange,
	}
}

// withDefaults returns cfg with zero fields replaced by defaults and panics
// on invalid settings.
func (cfg Config) withDefaults() Config {
	if cfg.Mesh.N() == 0 {
		panic("coin: config has empty mesh")
	}
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = 32
	}
	if cfg.RandomPairingEvery == 0 {
		cfg.RandomPairingEvery = 16
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 1.5
	}
	if cfg.Threshold < 0 {
		panic("coin: negative threshold")
	}
	if cfg.MaxCycles == 0 {
		diam := sim.Cycles(cfg.Mesh.MaxHopDistance() + 1)
		cfg.MaxCycles = 4096 * cfg.RefreshInterval * diam
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		cfg.Harden = true
	}
	return cfg
}
