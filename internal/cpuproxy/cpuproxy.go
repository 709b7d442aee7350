// Package cpuproxy extends BlitzCoin toward CPU tiles, the case Sec. IV-C
// discusses but excludes from the silicon implementation: unlike
// fixed-function accelerators, a CPU's power at a given frequency varies
// widely with the workload it runs, so the static coin-to-frequency LUT
// must become dynamic. The paper points to activity counters and power
// proxies (Floyd et al. [18], Huang et al. [75]) as the established
// solution; this package implements that approach:
//
//   - Counters models the per-window activity events a core exposes;
//   - Proxy turns counter deltas into a power estimate via a weighted
//     linear model, smoothed with an exponential moving average;
//   - DynamicCurve scales a CPU's maximum power/frequency characterization
//     by the observed activity factor, yielding the effective P(F) curve
//     the coin LUT should be rebuilt from;
//   - Manager ties it together: it periodically re-derives the tile's coin
//     target (max) from the activity estimate, so a mostly-idle core stops
//     hoarding budget that accelerators could use.
package cpuproxy

import (
	"fmt"
	"math"

	"blitzcoin/internal/power"
)

// Counters is one sampling window of core activity events.
type Counters struct {
	Cycles     uint64
	Instr      uint64
	MemOps     uint64
	FPOps      uint64
	BranchMiss uint64
}

// Weights converts events to energy: picojoules per event, the linear
// power-proxy formulation of [75].
type Weights struct {
	PerInstrPJ      float64
	PerMemOpPJ      float64
	PerFPOpPJ       float64
	PerBranchMissPJ float64
	// BasePJPerCycle is the clock-tree and pipeline-idle energy per cycle.
	BasePJPerCycle float64
}

// DefaultWeights returns 12nm-class application-core coefficients.
func DefaultWeights() Weights {
	return Weights{
		PerInstrPJ:      8,
		PerMemOpPJ:      22,
		PerFPOpPJ:       15,
		PerBranchMissPJ: 30,
		BasePJPerCycle:  3,
	}
}

// Proxy estimates a core's dynamic power from activity counters.
type Proxy struct {
	W Weights
	// Alpha is the EWMA smoothing factor in (0, 1]; 1 means no smoothing.
	Alpha float64

	estMW  float64
	primed bool
}

// NewProxy builds a proxy with the given weights and smoothing.
func NewProxy(w Weights, alpha float64) *Proxy {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("cpuproxy: alpha %v out of (0,1]", alpha))
	}
	return &Proxy{W: w, Alpha: alpha}
}

// Observe folds one counter window at the given clock into the estimate and
// returns the instantaneous (unsmoothed) power in mW. Energy per window is
// the weighted event sum; power is energy divided by the window's wall
// time (Cycles / fMHz microseconds).
func (p *Proxy) Observe(c Counters, fMHz float64) float64 {
	if c.Cycles == 0 || fMHz <= 0 {
		return p.estMW
	}
	energyPJ := float64(c.Instr)*p.W.PerInstrPJ +
		float64(c.MemOps)*p.W.PerMemOpPJ +
		float64(c.FPOps)*p.W.PerFPOpPJ +
		float64(c.BranchMiss)*p.W.PerBranchMissPJ +
		float64(c.Cycles)*p.W.BasePJPerCycle
	windowUs := float64(c.Cycles) / fMHz
	// pJ/us = 1e-12 J / 1e-6 s = 1 uW; convert to mW.
	instMW := energyPJ / windowUs * 1e-3
	if !p.primed {
		p.estMW = instMW
		p.primed = true
	} else {
		p.estMW = p.Alpha*instMW + (1-p.Alpha)*p.estMW
	}
	return instMW
}

// EstimateMW returns the smoothed power estimate at the observed clock.
func (p *Proxy) EstimateMW() float64 { return p.estMW }

// ActivityFactor returns the estimate relative to the core's maximum power
// at the same frequency, clamped to [minFactor, 1]. This is the scaling
// the dynamic LUT applies.
func (p *Proxy) ActivityFactor(curve *power.Curve, fMHz, minFactor float64) float64 {
	max := curve.PowerAt(fMHz)
	if max <= 0 {
		return minFactor
	}
	af := p.estMW / max
	if af < minFactor {
		af = minFactor
	}
	if af > 1 {
		af = 1
	}
	return af
}

// DynamicCurve wraps a CPU's worst-case characterization with a
// time-varying activity factor: the effective power at a frequency is the
// leakage share plus the dynamic share scaled by activity. The coin LUT
// rebuilt from this curve lets a low-activity core hit its frequency target
// with fewer coins.
type DynamicCurve struct {
	Base *power.Curve
	// LeakFrac is the leakage fraction of the base curve's power, which
	// activity cannot reduce.
	LeakFrac float64

	activity float64
}

// NewDynamicCurve wraps base; activity starts at 1 (worst case).
func NewDynamicCurve(base *power.Curve, leakFrac float64) *DynamicCurve {
	if leakFrac < 0 || leakFrac >= 1 {
		panic(fmt.Sprintf("cpuproxy: leak fraction %v out of [0,1)", leakFrac))
	}
	return &DynamicCurve{Base: base, LeakFrac: leakFrac, activity: 1}
}

// SetActivity updates the activity factor in (0, 1].
func (d *DynamicCurve) SetActivity(af float64) {
	if af <= 0 || af > 1 {
		panic(fmt.Sprintf("cpuproxy: activity %v out of (0,1]", af))
	}
	d.activity = af
}

// PowerAt returns the effective power at fMHz under the current activity.
func (d *DynamicCurve) PowerAt(fMHz float64) float64 {
	base := d.Base.PowerAt(fMHz)
	return base * (d.LeakFrac + (1-d.LeakFrac)*d.activity)
}

// Manager periodically re-derives a CPU tile's coin target from observed
// activity and pushes it into the exchange fabric through the provided
// callback (the SoC harness wires this to Emulator.SetMax). Hysteresis
// avoids churning the coin distribution on small activity wiggles.
type Manager struct {
	Proxy *Proxy
	Curve *DynamicCurve
	// MWPerCoin is the SoC's coin value.
	MWPerCoin float64
	// HysteresisCoins suppresses target updates smaller than this.
	HysteresisCoins int64
	// SetMax pushes a new coin target for the tile.
	SetMax func(coins int64)

	lastCoins int64
}

// Sample processes one counter window at the current clock: update the
// proxy, refresh the dynamic curve, and (if it moved enough) retarget the
// tile's max coins to the power the core would draw at full frequency
// under its present activity.
func (m *Manager) Sample(c Counters, fMHz float64) int64 {
	m.Proxy.Observe(c, fMHz)
	af := m.Proxy.ActivityFactor(m.Curve.Base, fMHz, 0.05)
	m.Curve.SetActivity(af)
	wantMW := m.Curve.PowerAt(m.Curve.Base.FMax())
	coins := int64(math.Round(wantMW / m.MWPerCoin))
	if coins > 63 {
		coins = 63
	}
	if coins < 0 {
		coins = 0
	}
	if abs := coins - m.lastCoins; abs < 0 {
		if -abs <= m.HysteresisCoins {
			return m.lastCoins
		}
	} else if abs <= m.HysteresisCoins {
		return m.lastCoins
	}
	m.lastCoins = coins
	if m.SetMax != nil {
		m.SetMax(coins)
	}
	return coins
}

// CVA6 returns a worst-case power/frequency characterization for the
// RISC-V CVA6 application core of the evaluated SoCs (Sec. IV-B), in the
// same alpha-power form as the accelerator curves.
func CVA6() *power.Curve {
	return power.Synthesize(power.ModelParams{
		Name: "CVA6", VMin: 0.5, VMax: 1.0, FMaxMHz: 800, PMaxmW: 75,
	})
}
