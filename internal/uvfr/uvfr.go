// Package uvfr models the Unified Voltage and Frequency Regulation scheme of
// Sec. IV-A (Fig. 9, right).
//
// Conventional per-tile DVFS uses two control loops: a voltage regulator
// locking Vlogic to a target voltage, and a PLL locking Flogic to a target
// frequency. The UVFR collapses them into one loop around a frequency
// target:
//
//   - a free-running Ring Oscillator (RO), supplied by the tile voltage Vi
//     and tuned as a Critical Path Replica (CPR), generates the tile clock;
//     its frequency inherently tracks Vi, so voltage droops stretch the
//     clock instead of violating timing;
//   - a counter-based Time-to-Digital Converter (TDC) in the tile domain
//     produces a digital readout of the current clock frequency;
//   - an LDO controller in the NoC domain compares the readout against
//     Ftarget (from the coin LUT) and adjusts the LDO code with a PID
//     controller; the LDO sets Vi from the fixed input rail.
//
// The models here are behavioral — the paper itself simulates the RO as a
// time-annotated block — but they preserve the loop structure, quantization
// (8-bit LDO code, counter TDC), slew limits, and settling dynamics that the
// SoC-level experiments observe (e.g. the LDO transition of Fig. 19).
package uvfr

import (
	"fmt"
	"math"
	"sync"

	"blitzcoin/internal/power"
	"blitzcoin/internal/sim"
)

// RingOscillator is a critical-path-replica clock source: for any supply
// voltage it oscillates near the tile's maximum safe frequency at that
// voltage, following the alpha-power law.
type RingOscillator struct {
	Vt      float64 // threshold voltage (V)
	Alpha   float64 // velocity-saturation exponent
	FNomMHz float64 // frequency at VNom
	VNom    float64 // nominal (maximum) supply
}

// FreqMHz returns the oscillation frequency at supply v. Below threshold
// the oscillator stalls (0 MHz).
func (r RingOscillator) FreqMHz(v float64) float64 {
	if v <= r.Vt {
		return 0
	}
	return r.FNomMHz * math.Pow((v-r.Vt)/(r.VNom-r.Vt), r.Alpha)
}

// LDO is a digital low-drop-out regulator: an 8-bit code selects the output
// voltage between VMin and VMax, subject to a per-step slew limit. The
// fully-synthesizable LDO of the paper costs 0.01-0.03% of a 1 mm^2 tile.
type LDO struct {
	VinV       float64 // fixed input rail
	VMin, VMax float64 // output range
	Bits       int     // code width (8 in the implementation)
	SlewCodes  int     // max code movement per control step

	code int
}

// MaxCode returns the largest code value.
func (l *LDO) MaxCode() int { return 1<<l.Bits - 1 }

// Code returns the current code.
func (l *LDO) Code() int { return l.code }

// SetCode requests a new code; movement is clamped to the slew limit and
// the valid range. It returns the code actually reached.
func (l *LDO) SetCode(c int) int {
	if c < 0 {
		c = 0
	}
	if c > l.MaxCode() {
		c = l.MaxCode()
	}
	d := c - l.code
	if l.SlewCodes > 0 {
		if d > l.SlewCodes {
			d = l.SlewCodes
		}
		if d < -l.SlewCodes {
			d = -l.SlewCodes
		}
	}
	l.code += d
	return l.code
}

// Vout returns the regulated output voltage for the current code, clamped
// below the input rail minus dropout.
func (l *LDO) Vout() float64 { return l.voutAt(l.code) }

// voutAt returns the output voltage code c selects.
func (l *LDO) voutAt(c int) float64 {
	v := l.VMin + (l.VMax-l.VMin)*float64(c)/float64(l.MaxCode())
	const dropout = 0.05
	if max := l.VinV - dropout; v > max {
		v = max
	}
	return v
}

// TDC is a counter-based time-to-digital converter: it counts tile-clock
// edges within a measurement window of the fixed NoC clock, yielding a
// quantized frequency readout. This is the simple digital comparator that
// makes UVFR cheap (0.49% area including the coin logic).
type TDC struct {
	WindowCycles int // measurement window in NoC cycles
}

// Count returns the readout for a tile clock of fMHz.
func (t TDC) Count(fMHz float64) int {
	return int(fMHz * float64(t.WindowCycles) / (sim.NoCFrequencyHz / 1e6))
}

// CountsFor returns the target readout corresponding to a frequency target.
func (t TDC) CountsFor(fTargetMHz float64) int { return t.Count(fTargetMHz) }

// MHzPerCount returns the quantization step of the readout.
func (t TDC) MHzPerCount() float64 {
	return (sim.NoCFrequencyHz / 1e6) / float64(t.WindowCycles)
}

// PID is the discrete controller adjusting the LDO code from the TDC error.
type PID struct {
	KP, KI, KD float64

	integ, prevErr float64
	primed         bool
}

// Step consumes the current error (in TDC counts) and returns the code
// adjustment. The integrator is clamped to avoid windup across large
// frequency steps.
func (p *PID) Step(err float64) float64 {
	p.integ += err
	const windup = 16
	if p.integ > windup {
		p.integ = windup
	}
	if p.integ < -windup {
		p.integ = -windup
	}
	var d float64
	if p.primed {
		d = err - p.prevErr
	}
	p.prevErr = err
	p.primed = true
	return p.KP*err + p.KI*p.integ + p.KD*d
}

// Config parameterizes a Regulator.
type Config struct {
	RO  RingOscillator
	LDO LDO
	TDC TDC
	PID PID
	// PeriodCycles is the control-loop period in NoC cycles.
	PeriodCycles sim.Cycles
	// SettleCounts is the TDC-error tolerance considered "settled".
	SettleCounts int
	// SettleSteps is how many consecutive in-tolerance steps settle needs.
	SettleSteps int
}

// DefaultConfig returns a regulator configuration for an accelerator whose
// maximum frequency/voltage operating point is (fMaxMHz, vMax) with minimum
// voltage vMin, typical of the paper's 12 nm tiles.
func DefaultConfig(fMaxMHz, vMin, vMax float64) Config {
	return Config{
		RO:           RingOscillator{Vt: 0.30, Alpha: 1.3, FNomMHz: fMaxMHz, VNom: vMax},
		LDO:          LDO{VinV: vMax + 0.05, VMin: vMin, VMax: vMax, Bits: 8, SlewCodes: 16},
		TDC:          TDC{WindowCycles: 16},
		PID:          PID{KP: 6, KI: 0.4, KD: 0.5},
		PeriodCycles: 16,
		SettleCounts: 1,
		SettleSteps:  3,
	}
}

// ConfigForCurve derives a regulator configuration from an accelerator's
// power/frequency characterization, so the RO tracks that tile's critical
// path.
func ConfigForCurve(c *power.Curve) Config {
	vMin := c.Points[0].V
	vMax := c.Points[len(c.Points)-1].V
	return DefaultConfig(c.FMax(), vMin, vMax)
}

// Regulator is one tile's UVFR instance.
type Regulator struct {
	cfg Config
	// freq and count hold the RO frequency and its TDC readout at every
	// LDO code, read while the supply carries no droop.
	freq  []float64
	count []int

	targetCount int     // the TDC readout of the frequency target
	droopV      float64 // transient rail droop, decays each step
	settled     int     // consecutive in-tolerance steps
}

// NewRegulator builds a regulator. It panics on degenerate configuration.
func NewRegulator(cfg Config) *Regulator {
	r := new(Regulator)
	r.Init(cfg)
	return r
}

// Init makes r a fresh regulator for cfg, as NewRegulator builds one, in
// storage the caller owns, such as a per-run slab of tiles. It panics on
// degenerate configuration.
func (r *Regulator) Init(cfg Config) {
	if cfg.PeriodCycles == 0 || cfg.TDC.WindowCycles == 0 || cfg.LDO.Bits == 0 {
		panic(fmt.Sprintf("uvfr: incomplete config %+v", cfg))
	}
	t := codeTables(cfg.RO, cfg.LDO, cfg.TDC)
	*r = Regulator{cfg: cfg, freq: t.freq, count: t.count}
}

// tableKey is what a regulator's code tables depend on: the RO, the LDO's
// code-to-voltage map and the TDC window.
type tableKey struct {
	ro              RingOscillator
	vin, vmin, vmax float64
	bits            int
	window          int
}

// codeTable is the droop-free tile clock at every LDO code: the RO
// frequency and the TDC readout of it.
type codeTable struct {
	freq  []float64
	count []int
}

// tables holds one code table per distinct key for the life of the
// process. Regulators are built from the accelerator catalog's curves, so
// it holds a handful of entries, and no run or tile builds its own.
var tables struct {
	sync.Mutex
	m map[tableKey]codeTable
}

// codeTables returns RingOscillator.FreqMHz(LDO.Vout()) and its TDC count
// at every code of the LDO, 256 for the paper's 8-bit code (Sec. IV-A):
// without droop the tile clock can take no other value, so a regulator
// reads both instead of evaluating the alpha-power law on every control
// step. The tables are built on first use and shared; callers must not
// modify them.
func codeTables(ro RingOscillator, ldo LDO, tdc TDC) codeTable {
	k := tableKey{ro, ldo.VinV, ldo.VMin, ldo.VMax, ldo.Bits, tdc.WindowCycles}
	tables.Lock()
	defer tables.Unlock()
	if t, ok := tables.m[k]; ok {
		return t
	}
	n := ldo.MaxCode() + 1
	t := codeTable{freq: make([]float64, n), count: make([]int, n)}
	for c := range t.freq {
		t.freq[c] = ro.FreqMHz(ldo.voutAt(c))
		t.count[c] = tdc.Count(t.freq[c])
	}
	if tables.m == nil {
		tables.m = make(map[tableKey]codeTable)
	}
	tables.m[k] = t
	return t
}

// SetTargetMHz changes the frequency target (from the coin LUT). The loop
// starts slewing at the next Step.
func (r *Regulator) SetTargetMHz(f float64) {
	r.targetCount = r.cfg.TDC.CountsFor(f)
	r.settled = 0
}

// Vout returns the tile supply voltage including any transient droop.
func (r *Regulator) Vout() float64 { return r.cfg.LDO.Vout() - r.droopV }

// FreqMHz returns the current tile clock frequency: the RO output at the
// present (possibly drooped) supply. This is UVFR's defining property — the
// clock tracks the voltage with no explicit re-programming. Without droop
// the supply is LDO.Vout() exactly (x - 0 = x), so the frequency is the
// table's entry for the code.
func (r *Regulator) FreqMHz() float64 {
	if r.droopV == 0 {
		return r.freq[r.cfg.LDO.code]
	}
	return r.cfg.RO.FreqMHz(r.Vout())
}

// Readout returns the TDC count for the current frequency: the table's
// entry for the code without droop, as for FreqMHz.
func (r *Regulator) Readout() int {
	if r.droopV == 0 {
		return r.count[r.cfg.LDO.code]
	}
	return r.cfg.TDC.Count(r.FreqMHz())
}

// Settled reports whether the loop has been within tolerance for the
// required number of consecutive steps.
func (r *Regulator) Settled() bool { return r.settled >= r.cfg.SettleSteps }

// InjectDroop applies a transient supply droop (V), e.g. from a sudden
// activity change on a shared rail. The RO immediately slows, protecting
// timing; the droop decays over subsequent control steps.
func (r *Regulator) InjectDroop(dv float64) {
	if dv < 0 {
		panic("uvfr: negative droop")
	}
	r.droopV += dv
}

// Step runs one control period: read the TDC, run the PID, move the LDO
// code, and decay any transient droop. It returns the new tile frequency.
func (r *Regulator) Step() float64 {
	errCounts := float64(r.targetCount - r.Readout())
	delta := r.cfg.PID.Step(errCounts)
	code := r.cfg.LDO.Code() + int(math.Round(delta))
	r.cfg.LDO.SetCode(code)
	// Droop recovery: the package/board network restores the rail with a
	// time constant of a few control periods.
	r.droopV *= 0.5
	if r.droopV < 1e-4 {
		r.droopV = 0
	}
	if math.Abs(errCounts) <= float64(r.cfg.SettleCounts) {
		r.settled++
	} else {
		r.settled = 0
	}
	return r.FreqMHz()
}

// SettleCycles steps the loop until settled or maxSteps, returning the
// simulated cycles consumed and whether it settled. This is the actuation
// latency the SoC harness charges for a DVFS transition.
func (r *Regulator) SettleCycles(maxSteps int) (sim.Cycles, bool) {
	for i := 0; i < maxSteps; i++ {
		r.Step()
		if r.Settled() {
			return sim.Cycles(i+1) * r.cfg.PeriodCycles, true
		}
	}
	return sim.Cycles(maxSteps) * r.cfg.PeriodCycles, false
}
