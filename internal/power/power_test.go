package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	for _, name := range []string{"FFT", "Viterbi", "NVDLA", "GEMM", "Conv2D", "Vision"} {
		c, ok := cat[name]
		if !ok {
			t.Fatalf("missing accelerator %q", name)
		}
		if c.Name != name {
			t.Fatalf("curve name %q under key %q", c.Name, name)
		}
	}
}

func TestCurvesMonotone(t *testing.T) {
	for name, c := range Catalog() {
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].FMHz <= c.Points[i-1].FMHz {
				t.Fatalf("%s: frequency not strictly increasing at %d", name, i)
			}
			if c.Points[i].PmW <= c.Points[i-1].PmW {
				t.Fatalf("%s: power not strictly increasing with frequency at %d", name, i)
			}
			if c.Points[i].V <= c.Points[i-1].V {
				t.Fatalf("%s: voltage not increasing with frequency at %d", name, i)
			}
		}
	}
}

func TestPaperVoltageRanges(t *testing.T) {
	// Fig. 13: FFT/Viterbi 0.5-1.0 V, NVDLA 0.6-1.0 V, GEMM/Conv2D/Vision
	// 0.6-0.9 V.
	ranges := map[string][2]float64{
		"FFT": {0.5, 1.0}, "Viterbi": {0.5, 1.0}, "NVDLA": {0.6, 1.0},
		"GEMM": {0.6, 0.9}, "Conv2D": {0.6, 0.9}, "Vision": {0.6, 0.9},
	}
	for name, want := range ranges {
		c := Catalog()[name]
		lo := c.Points[0].V
		hi := c.Points[len(c.Points)-1].V
		if math.Abs(lo-want[0]) > 1e-9 || math.Abs(hi-want[1]) > 1e-9 {
			t.Fatalf("%s voltage range [%v,%v], want %v", name, lo, hi, want)
		}
	}
}

func TestSoCBudgetFractions(t *testing.T) {
	// The 3x3 SoC budget of 120 mW must be 30% of the combined max power
	// of 3 FFT + 2 Viterbi + 1 NVDLA (Sec. VI-A).
	combined3x3 := 3*FFT().PMax() + 2*Viterbi().PMax() + NVDLA().PMax()
	if math.Abs(combined3x3-400) > 1 {
		t.Fatalf("3x3 combined max = %.1f mW, want 400", combined3x3)
	}
	// C-RR must be able to grant even the largest accelerator under the
	// paper's high 3x3 budget (120 mW), or the discrete max/min policy
	// degenerates.
	if NVDLA().PMax() > 120 {
		t.Fatalf("NVDLA PMax %.1f exceeds the 120 mW budget", NVDLA().PMax())
	}
	// The 4x4 SoC: 450 mW is about 33%, 900 about 66% of the combined max
	// (Sec. VI-B).
	combined4x4 := 4*Vision().PMax() + 5*GEMM().PMax() + 4*Conv2D().PMax()
	if frac := 450 / combined4x4; frac < 0.30 || frac > 0.36 {
		t.Fatalf("4x4 450 mW fraction = %.3f, want about 0.33", frac)
	}
	if frac := 900 / combined4x4; frac < 0.60 || frac > 0.72 {
		t.Fatalf("4x4 900 mW fraction = %.3f, want about 0.66", frac)
	}
}

func TestTenXPowerSpread(t *testing.T) {
	// Sec. II-A: up to 10x power spread across heterogeneous accelerators.
	lo, hi := math.Inf(1), 0.0
	for _, c := range Catalog() {
		if c.PMax() < lo {
			lo = c.PMax()
		}
		if c.PMax() > hi {
			hi = c.PMax()
		}
	}
	if spread := hi / lo; spread < 5 || spread > 12 {
		t.Fatalf("power spread %.1fx, want order of 10x", spread)
	}
}

func TestPowerFreqInverseConsistency(t *testing.T) {
	// FreqAtPower(PowerAt(f)) == f within interpolation error for any f in
	// range, for all curves (monotone bijection).
	for name, c := range Catalog() {
		c := c
		f := func(x float64) bool {
			frac := math.Abs(x) - math.Floor(math.Abs(x)) // in [0,1)
			fr := c.FMin() + frac*(c.FMax()-c.FMin())
			back := c.FreqAtPower(c.PowerAt(fr))
			return math.Abs(back-fr) < 1e-6*c.FMax()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestClamping(t *testing.T) {
	c := FFT()
	if got := c.PowerAt(0); got != c.PMin() {
		t.Fatalf("below-range power = %v, want PMin %v", got, c.PMin())
	}
	if got := c.PowerAt(1e6); got != c.PMax() {
		t.Fatalf("above-range power = %v, want PMax %v", got, c.PMax())
	}
	if got := c.FreqAtPower(0); got != c.FMin() {
		t.Fatalf("below-range freq = %v, want FMin %v", got, c.FMin())
	}
	if got := c.FreqAtPower(1e6); got != c.FMax() {
		t.Fatalf("above-range freq = %v, want FMax %v", got, c.FMax())
	}
}

func TestIdlePower(t *testing.T) {
	// Sec. V-A: idle tiles save 7.5x below the Vmin operating point,
	// making power gating unnecessary.
	for name, c := range Catalog() {
		if got := c.IdlePowerMW(); math.Abs(got-c.PMin()/7.5) > 1e-12 {
			t.Fatalf("%s idle power %v, want PMin/7.5", name, got)
		}
		if c.IdlePowerMW() >= c.PMin() {
			t.Fatalf("%s idle power not below PMin", name)
		}
	}
}

func TestVoltageAt(t *testing.T) {
	c := NVDLA()
	if v := c.VoltageAt(c.FMax()); math.Abs(v-1.0) > 1e-9 {
		t.Fatalf("VoltageAt(FMax) = %v, want 1.0", v)
	}
	if v := c.VoltageAt(c.FMin()); math.Abs(v-0.6) > 1e-9 {
		t.Fatalf("VoltageAt(FMin) = %v, want 0.6", v)
	}
	mid := (c.FMin() + c.FMax()) / 2
	v := c.VoltageAt(mid)
	if v <= 0.6 || v >= 1.0 {
		t.Fatalf("mid voltage %v out of range", v)
	}
}

func TestSuperlinearPowerVsFrequency(t *testing.T) {
	// DVFS premise: halving frequency saves more than half the power.
	for name, c := range Catalog() {
		half := c.PowerAt(c.FMax() / 2)
		if half >= c.PMax()/2 {
			t.Fatalf("%s: P(F/2) = %.2f not < PMax/2 = %.2f", name, half, c.PMax()/2)
		}
	}
}

func TestSynthesizePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad params did not panic")
		}
	}()
	Synthesize(ModelParams{Name: "bad", VMin: 0.2, VMax: 0.1, FMaxMHz: 100, PMaxmW: 10})
}

// Catalog shares its curves across calls, but each call's map is the
// caller's own: editing one must not leak into the next.
func TestCatalogMapIsFreshPerCall(t *testing.T) {
	a := Catalog()
	fft := a["FFT"]
	delete(a, "Viterbi")
	a["FFT"] = Vision()
	a["TPU"] = GEMM()
	b := Catalog()
	if len(b) != 6 || b["TPU"] != nil || b["Viterbi"] == nil {
		t.Fatalf("edits to one Catalog map leaked into the next: %d entries", len(b))
	}
	if b["FFT"] != fft || b["FFT"].Name != "FFT" {
		t.Fatalf("FFT entry = %q, want the shared FFT curve", b["FFT"].Name)
	}
}
