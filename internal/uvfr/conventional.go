package uvfr

import (
	"math"

	"blitzcoin/internal/sim"
)

// Conventional models the dual-loop actuator of Fig. 9 (left) that UVFR
// replaces: a voltage regulator locks Vlogic to a commanded voltage, and a
// PLL locks the clock to a commanded frequency, each loop independent.
// Because the clock does not track the rail, the operating voltage must
// carry a static guardband against transient IR droop — the margin UVFR
// eliminates by construction (Sec. II-C, IV-A). The PLL relock also costs a
// fixed dead time per retarget.
type Conventional struct {
	RO RingOscillator // device model: gives Fmax(V) for the tile's logic

	// GuardbandV is the extra supply margin held against droop; typical
	// values are tens of millivolts.
	GuardbandV float64
	// RelockCycles is the PLL relock dead time per frequency change.
	RelockCycles sim.Cycles
	// VMin and VMax bound the commanded voltage.
	VMin, VMax float64

	targetMHz float64
	voltage   float64
	droopV    float64
}

// NewConventional builds a conventional actuator for a tile whose maximum
// frequency/voltage point is (fMaxMHz, vMax), with the given droop
// guardband.
func NewConventional(fMaxMHz, vMin, vMax, guardbandV float64) *Conventional {
	return &Conventional{
		RO:           RingOscillator{Vt: 0.30, Alpha: 1.3, FNomMHz: fMaxMHz, VNom: vMax},
		GuardbandV:   guardbandV,
		RelockCycles: 2000, // 2.5 us PLL relock at 800 MHz
		VMin:         vMin,
		VMax:         vMax,
		voltage:      vMin,
	}
}

// voltageFor inverts the alpha-power law: the minimum supply at which the
// logic closes timing at fMHz.
func (c *Conventional) voltageFor(fMHz float64) float64 {
	if fMHz <= 0 {
		return c.VMin
	}
	frac := fMHz / c.RO.FNomMHz
	v := c.RO.Vt + (c.RO.VNom-c.RO.Vt)*math.Pow(frac, 1/c.RO.Alpha)
	if v < c.VMin {
		v = c.VMin
	}
	if v > c.VMax {
		v = c.VMax
	}
	return v
}

// SetTargetMHz retargets both loops and returns the actuation dead time:
// the PLL relock, during which the tile must run at the slower of the old
// and new frequencies to stay safe.
func (c *Conventional) SetTargetMHz(f float64) sim.Cycles {
	c.targetMHz = f
	// Command the timing-closure voltage plus the droop guardband.
	c.voltage = c.voltageFor(f) + c.GuardbandV
	if c.voltage > c.VMax+c.GuardbandV {
		c.voltage = c.VMax + c.GuardbandV
	}
	return c.RelockCycles
}

// FreqMHz returns the clock output: the PLL holds the commanded frequency
// regardless of the rail, which is precisely why the guardband must exist.
func (c *Conventional) FreqMHz() float64 { return c.targetMHz }

// Vout returns the operating voltage including guardband and any transient
// droop.
func (c *Conventional) Vout() float64 { return c.voltage - c.droopV }

// InjectDroop applies a transient rail droop. Unlike UVFR, the clock does
// NOT slow down; TimingViolated reports whether the margin was breached.
func (c *Conventional) InjectDroop(dv float64) {
	if dv < 0 {
		panic("uvfr: negative droop")
	}
	c.droopV += dv
}

// TimingViolated reports whether the current voltage (after droop) is below
// what the commanded frequency needs: a potential timing failure the
// guardband exists to prevent.
func (c *Conventional) TimingViolated() bool {
	return c.Vout() < c.voltageFor(c.targetMHz)
}

// GuardbandPowerPenalty returns the relative dynamic-power overhead of
// running at the guardbanded voltage instead of the exact timing-closure
// voltage for the current target: power scales with V^2, so the penalty is
// (V+g)^2/V^2 - 1.
func (c *Conventional) GuardbandPowerPenalty() float64 {
	v := c.voltageFor(c.targetMHz)
	if v <= 0 {
		return 0
	}
	g := c.voltage / v
	return g*g - 1
}
