package uvfr

import (
	"math"
	"testing"
)

func newConv() *Conventional {
	return NewConventional(800, 0.5, 1.0, 0.05)
}

func TestConventionalHoldsCommandedFrequency(t *testing.T) {
	c := newConv()
	c.SetTargetMHz(600)
	if c.FreqMHz() != 600 {
		t.Fatalf("freq = %v", c.FreqMHz())
	}
}

func TestConventionalVoltageIncludesGuardband(t *testing.T) {
	c := newConv()
	c.SetTargetMHz(600)
	need := c.voltageFor(600)
	if got := c.Vout(); math.Abs(got-(need+0.05)) > 1e-9 {
		t.Fatalf("Vout = %v, want timing voltage %v + 50mV guardband", got, need)
	}
}

func TestConventionalRelockDeadTime(t *testing.T) {
	c := newConv()
	if dead := c.SetTargetMHz(700); dead != 2000 {
		t.Fatalf("relock = %d cycles, want 2000", dead)
	}
}

func TestConventionalDroopDoesNotSlowClock(t *testing.T) {
	// The defining contrast with UVFR: under droop the PLL clock keeps
	// running at full speed, so a large droop breaches the margin.
	c := newConv()
	c.SetTargetMHz(700)
	before := c.FreqMHz()
	c.InjectDroop(0.03)
	if c.FreqMHz() != before {
		t.Fatal("conventional clock should not track the rail")
	}
	if c.TimingViolated() {
		t.Fatal("30mV droop is inside the 50mV guardband")
	}
	c.InjectDroop(0.04) // total 70mV > guardband
	if !c.TimingViolated() {
		t.Fatal("droop beyond the guardband must violate timing")
	}
}

func TestUVFRSurvivesDroopThatBreaksConventional(t *testing.T) {
	// Same droop on both actuators: UVFR's clock stretches (no timing
	// violation by construction); the conventional design violates.
	conv := newConv()
	conv.SetTargetMHz(700)
	conv.InjectDroop(0.08)
	if !conv.TimingViolated() {
		t.Fatal("80mV droop should break a 50mV guardband")
	}

	r := NewRegulator(DefaultConfig(800, 0.5, 1.0))
	r.SetTargetMHz(700)
	r.SettleCycles(1000)
	fBefore := r.FreqMHz()
	r.InjectDroop(0.08)
	if r.FreqMHz() >= fBefore {
		t.Fatal("UVFR clock should stretch under droop")
	}
	// The stretched clock always matches what the drooped voltage can
	// sustain — that is the CPR property.
}

func TestGuardbandPowerPenalty(t *testing.T) {
	c := newConv()
	c.SetTargetMHz(700)
	p := c.GuardbandPowerPenalty()
	if p <= 0 || p > 0.3 {
		t.Fatalf("guardband penalty = %v, want a small positive fraction", p)
	}
	// A larger guardband costs more power.
	big := NewConventional(800, 0.5, 1.0, 0.10)
	big.SetTargetMHz(700)
	if big.GuardbandPowerPenalty() <= p {
		t.Fatal("larger guardband should cost more")
	}
	// UVFR's equivalent penalty is zero: it runs at the exact timing
	// voltage for the delivered frequency.
}

func TestConventionalVoltageClamps(t *testing.T) {
	c := newConv()
	c.SetTargetMHz(0)
	if v := c.Vout(); v < c.VMin {
		t.Fatalf("voltage %v below VMin", v)
	}
	c.SetTargetMHz(10000) // beyond Fmax
	if v := c.Vout(); v > c.VMax+c.GuardbandV+1e-9 {
		t.Fatalf("voltage %v above VMax+guardband", v)
	}
}

func TestConventionalNegativeDroopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative droop did not panic")
		}
	}()
	newConv().InjectDroop(-0.01)
}
