package cpuproxy

import (
	"testing"
	"testing/quick"

	"blitzcoin/internal/power"
)

// busyWindow is a compute-heavy counter window at the given cycle count.
func busyWindow(cycles uint64) Counters {
	return Counters{
		Cycles: cycles, Instr: cycles * 2, MemOps: cycles / 4,
		FPOps: cycles / 4, BranchMiss: cycles / 100,
	}
}

// idleWindow is a stalled window: few instructions retire.
func idleWindow(cycles uint64) Counters {
	return Counters{Cycles: cycles, Instr: cycles / 50}
}

func TestProxyBusyVsIdle(t *testing.T) {
	busy := NewProxy(DefaultWeights(), 1)
	idle := NewProxy(DefaultWeights(), 1)
	busy.Observe(busyWindow(100000), 800)
	idle.Observe(idleWindow(100000), 800)
	if busy.EstimateMW() <= idle.EstimateMW() {
		t.Fatalf("busy %.2f mW not above idle %.2f mW", busy.EstimateMW(), idle.EstimateMW())
	}
	if idle.EstimateMW() <= 0 {
		t.Fatal("idle estimate should still include base clock power")
	}
}

func TestProxyEstimatePlausibleForCVA6(t *testing.T) {
	// A fully busy CVA6 at 800 MHz should estimate within the same order
	// as the curve's worst case (75 mW).
	p := NewProxy(DefaultWeights(), 1)
	p.Observe(busyWindow(1_000_000), 800)
	if est := p.EstimateMW(); est < 10 || est > 150 {
		t.Fatalf("busy estimate %.1f mW implausible for a 75 mW core", est)
	}
}

func TestProxyEWMASmoothing(t *testing.T) {
	p := NewProxy(DefaultWeights(), 0.25)
	p.Observe(busyWindow(100000), 800)
	after := p.EstimateMW()
	p.Observe(idleWindow(100000), 800)
	// With alpha 0.25 the estimate moves only a quarter of the way down.
	if p.EstimateMW() >= after || p.EstimateMW() < after/4 {
		t.Fatalf("smoothing off: %.2f -> %.2f", after, p.EstimateMW())
	}
}

func TestProxyScalesWithFrequencyProperty(t *testing.T) {
	// The same per-cycle activity at a higher clock is more power (same
	// energy per cycle, less time per cycle).
	f := func(clkA, clkB uint8) bool {
		fa := 200 + float64(clkA)*2
		fb := 200 + float64(clkB)*2
		pa := NewProxy(DefaultWeights(), 1)
		pb := NewProxy(DefaultWeights(), 1)
		pa.Observe(busyWindow(100000), fa)
		pb.Observe(busyWindow(100000), fb)
		if fa == fb {
			return pa.EstimateMW() == pb.EstimateMW()
		}
		return (fa > fb) == (pa.EstimateMW() > pb.EstimateMW())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestProxyIgnoresEmptyWindows(t *testing.T) {
	p := NewProxy(DefaultWeights(), 1)
	p.Observe(busyWindow(100000), 800)
	before := p.EstimateMW()
	p.Observe(Counters{}, 800)
	if p.EstimateMW() != before {
		t.Fatal("empty window changed the estimate")
	}
}

func TestNewProxyPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("alpha 0 did not panic")
		}
	}()
	NewProxy(DefaultWeights(), 0)
}

func TestActivityFactorClamped(t *testing.T) {
	p := NewProxy(DefaultWeights(), 1)
	curve := CVA6()
	// No observations: estimate 0 -> clamps to the floor.
	if af := p.ActivityFactor(curve, 800, 0.05); af != 0.05 {
		t.Fatalf("unprimed factor = %v, want floor", af)
	}
	// Enormous estimate clamps to 1.
	p.Observe(Counters{Cycles: 1000, Instr: 1 << 30}, 800)
	if af := p.ActivityFactor(curve, 800, 0.05); af != 1 {
		t.Fatalf("saturated factor = %v, want 1", af)
	}
}

func TestDynamicCurveScalesPower(t *testing.T) {
	d := NewDynamicCurve(CVA6(), 0.12)
	full := d.PowerAt(800)
	d.SetActivity(0.5)
	half := d.PowerAt(800)
	if half >= full {
		t.Fatal("lower activity should lower power")
	}
	// Leakage floor: even at the minimum activity the curve keeps the
	// leak share.
	d.SetActivity(0.05)
	if d.PowerAt(800) < CVA6().PowerAt(800)*0.12 {
		t.Fatal("activity scaling removed leakage")
	}
}

func TestDynamicCurveLowActivityNeedsFewerCoins(t *testing.T) {
	// The point of the extension: at half activity the core reaches Fmax
	// within a much smaller allocation.
	d := NewDynamicCurve(CVA6(), 0.12)
	fullCost := d.PowerAt(d.Base.FMax())
	d.SetActivity(0.3)
	lowCost := d.PowerAt(d.Base.FMax())
	if lowCost >= fullCost*0.6 {
		t.Fatalf("low-activity cost %.1f not far below %.1f", lowCost, fullCost)
	}
}

func TestDynamicCurvePanics(t *testing.T) {
	d := NewDynamicCurve(CVA6(), 0.12)
	for _, af := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("activity %v did not panic", af)
				}
			}()
			d.SetActivity(af)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("bad leak fraction did not panic")
		}
	}()
	NewDynamicCurve(CVA6(), 1.0)
}

func TestManagerRetargetsOnActivitySwing(t *testing.T) {
	var pushed []int64
	m := &Manager{
		Proxy:           NewProxy(DefaultWeights(), 1),
		Curve:           NewDynamicCurve(CVA6(), 0.12),
		MWPerCoin:       power.NVDLA().PMax() / 63,
		HysteresisCoins: 2,
		SetMax:          func(c int64) { pushed = append(pushed, c) },
	}
	busy := m.Sample(busyWindow(100000), 800)
	idle := m.Sample(idleWindow(100000), 800)
	if idle >= busy {
		t.Fatalf("idle target %d not below busy %d", idle, busy)
	}
	if len(pushed) != 2 {
		t.Fatalf("SetMax pushes = %d, want 2", len(pushed))
	}
	if busy > 63 || idle < 0 {
		t.Fatalf("targets out of register range: %d, %d", busy, idle)
	}
}

func TestManagerHysteresisSuppressesJitter(t *testing.T) {
	var pushes int
	m := &Manager{
		Proxy:           NewProxy(DefaultWeights(), 1),
		Curve:           NewDynamicCurve(CVA6(), 0.12),
		MWPerCoin:       1.5,
		HysteresisCoins: 4,
		SetMax:          func(int64) { pushes++ },
	}
	m.Sample(busyWindow(100000), 800)
	first := pushes
	// Nearly identical windows must not retarget.
	for i := 0; i < 5; i++ {
		m.Sample(busyWindow(100001+uint64(i)), 800)
	}
	if pushes != first {
		t.Fatalf("hysteresis failed: %d extra pushes", pushes-first)
	}
}

func TestCVA6CurveShape(t *testing.T) {
	c := CVA6()
	if c.PMax() != c.PowerAt(c.FMax()) {
		t.Fatal("curve inconsistent")
	}
	if c.PMax() < 50 || c.PMax() > 100 {
		t.Fatalf("CVA6 PMax %.1f out of the plausible band", c.PMax())
	}
}
