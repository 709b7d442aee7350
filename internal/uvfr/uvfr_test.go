package uvfr

import (
	"math"
	"testing"

	"blitzcoin/internal/power"
	"blitzcoin/internal/sim"
)

func newReg() *Regulator {
	return NewRegulator(DefaultConfig(800, 0.5, 1.0))
}

func TestRingOscillatorMonotone(t *testing.T) {
	ro := RingOscillator{Vt: 0.3, Alpha: 1.3, FNomMHz: 800, VNom: 1.0}
	prev := -1.0
	for v := 0.2; v <= 1.0; v += 0.05 {
		f := ro.FreqMHz(v)
		if f < prev {
			t.Fatalf("RO frequency decreased at V=%.2f", v)
		}
		prev = f
	}
	if ro.FreqMHz(0.2) != 0 {
		t.Fatal("RO should stall below threshold")
	}
	if got := ro.FreqMHz(1.0); math.Abs(got-800) > 1e-9 {
		t.Fatalf("RO at VNom = %v, want 800", got)
	}
}

func TestLDOCodeVoltageMapping(t *testing.T) {
	l := LDO{VinV: 1.05, VMin: 0.5, VMax: 1.0, Bits: 8, SlewCodes: 255}
	l.SetCode(0)
	if got := l.Vout(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("code 0 -> %v V, want 0.5", got)
	}
	l.SetCode(255)
	if got := l.Vout(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("code 255 -> %v V, want 1.0", got)
	}
}

func TestLDOSlewLimit(t *testing.T) {
	l := LDO{VinV: 1.05, VMin: 0.5, VMax: 1.0, Bits: 8, SlewCodes: 16}
	got := l.SetCode(255)
	if got != 16 {
		t.Fatalf("slew-limited code = %d, want 16", got)
	}
	got = l.SetCode(0)
	if got != 0 {
		t.Fatalf("downward slew code = %d, want 0", got)
	}
}

func TestLDODropoutClamp(t *testing.T) {
	l := LDO{VinV: 0.8, VMin: 0.5, VMax: 1.0, Bits: 8, SlewCodes: 255}
	l.SetCode(255)
	if got := l.Vout(); got > 0.75+1e-9 {
		t.Fatalf("Vout %v exceeds Vin - dropout", got)
	}
}

func TestTDCQuantization(t *testing.T) {
	d := TDC{WindowCycles: 16}
	// 800 MHz over a 16-cycle window of the 800 MHz reference: 16 counts.
	if got := d.Count(800); got != 16 {
		t.Fatalf("TDC(800MHz) = %d, want 16", got)
	}
	if got := d.MHzPerCount(); math.Abs(got-50) > 1e-9 {
		t.Fatalf("MHz/count = %v, want 50", got)
	}
	if d.Count(49) != 0 {
		t.Fatal("sub-resolution frequency should read 0")
	}
}

func TestRegulatorSettlesToTarget(t *testing.T) {
	r := newReg()
	r.SetTargetMHz(600)
	cycles, ok := r.SettleCycles(500)
	if !ok {
		t.Fatalf("did not settle; freq %.1f", r.FreqMHz())
	}
	if cycles == 0 {
		t.Fatal("settling took zero cycles")
	}
	tol := r.cfg.TDC.MHzPerCount() * 2
	if math.Abs(r.FreqMHz()-600) > tol {
		t.Fatalf("settled at %.1f MHz, want 600 +/- %.0f", r.FreqMHz(), tol)
	}
}

func TestRegulatorTracksSequenceOfTargets(t *testing.T) {
	r := newReg()
	for _, target := range []float64{400, 750, 200, 640} {
		r.SetTargetMHz(target)
		if _, ok := r.SettleCycles(1000); !ok {
			t.Fatalf("did not settle at %v MHz", target)
		}
		tol := r.cfg.TDC.MHzPerCount() * 2
		if math.Abs(r.FreqMHz()-target) > tol {
			t.Fatalf("freq %.1f after targeting %v", r.FreqMHz(), target)
		}
	}
}

func TestSettleLatencyMicrosecondScale(t *testing.T) {
	// The UVFR transition should land in the sub-microsecond-to-few-
	// microsecond range at 800 MHz, matching the measured LDO transition
	// of Fig. 19.
	r := newReg()
	r.SetTargetMHz(780)
	cycles, ok := r.SettleCycles(2000)
	if !ok {
		t.Fatal("did not settle")
	}
	us := sim.CyclesToMicros(cycles)
	if us <= 0 || us > 10 {
		t.Fatalf("settle latency %.3f us, want within (0, 10]", us)
	}
}

func TestDroopSlowsClockImmediately(t *testing.T) {
	// The UVFR property (Sec. II-C, IV-A): a voltage droop stretches the
	// clock instead of breaking timing.
	r := newReg()
	r.SetTargetMHz(700)
	r.SettleCycles(1000)
	before := r.FreqMHz()
	r.InjectDroop(0.08)
	after := r.FreqMHz()
	if after >= before {
		t.Fatalf("droop did not slow the clock: %.1f -> %.1f", before, after)
	}
	// The loop recovers.
	if _, ok := r.SettleCycles(1000); !ok {
		t.Fatal("did not recover from droop")
	}
	tol := r.cfg.TDC.MHzPerCount() * 2
	if math.Abs(r.FreqMHz()-700) > tol {
		t.Fatalf("post-droop freq %.1f, want about 700", r.FreqMHz())
	}
}

func TestInjectDroopPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative droop did not panic")
		}
	}()
	newReg().InjectDroop(-0.1)
}

func TestConfigForCurveTracksAccelerator(t *testing.T) {
	for name, c := range power.Catalog() {
		cfg := ConfigForCurve(c)
		r := NewRegulator(cfg)
		mid := (c.FMin() + c.FMax()) / 2
		r.SetTargetMHz(mid)
		if _, ok := r.SettleCycles(2000); !ok {
			t.Fatalf("%s: regulator did not settle at %.0f MHz", name, mid)
		}
		tol := cfg.TDC.MHzPerCount() * 2
		if math.Abs(r.FreqMHz()-mid) > tol {
			t.Fatalf("%s: settled at %.1f, want %.1f", name, r.FreqMHz(), mid)
		}
	}
}

func TestPIDIntegratorWindupClamp(t *testing.T) {
	p := PID{KP: 0, KI: 1}
	var out float64
	for i := 0; i < 1000; i++ {
		out = p.Step(100)
	}
	if out > 64+1e-9 {
		t.Fatalf("integrator wound up to %v", out)
	}
}

func TestNewRegulatorPanicsOnIncompleteConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("incomplete config did not panic")
		}
	}()
	NewRegulator(Config{})
}
