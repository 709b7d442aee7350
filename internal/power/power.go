// Package power models the power/frequency characterization of the
// accelerators evaluated in the paper (Fig. 13).
//
// The paper characterizes six accelerators: FFT, Viterbi, and NVDLA from
// ASIC measurements of the 12 nm prototype (0.5-1.0 V; NVDLA 0.6-1.0 V), and
// GEMM, Conv2D, and Vision from post-synthesis Cadence Joules simulation
// (0.6-0.9 V). Since neither the silicon nor the proprietary PDK is
// available here, each curve is synthesized from a standard alpha-power
// device model fit to the paper's reported ranges:
//
//	F(V) = Fmax * ((V-Vt)/(Vmax-Vt))^alpha          (alpha-power law)
//	P(V) = Pdyn * (V/Vmax)^2 * (F/Fmax) + Pleak * (V/Vmax)^3
//
// The BlitzCoin machinery consumes only the monotone P(F) relation and its
// inverse, which this model preserves: power grows superlinearly with
// frequency, and reducing frequency further at the minimum voltage yields
// the large idle savings the paper reports (7.5x below the Vmin operating
// point).
package power

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"
)

// Point is one DVFS operating point of an accelerator.
type Point struct {
	V    float64 // supply voltage (V)
	FMHz float64 // maximum frequency at V (MHz)
	PmW  float64 // power at (V, FMHz) (mW)
}

// Curve is a monotone power/frequency characterization, the per-tile
// pre-characterization the coin-to-frequency LUT is built from (Sec. IV-A).
type Curve struct {
	Name string
	// Points are sorted by ascending frequency.
	Points []Point
	// IdleFactor is the additional power reduction available by frequency
	// scaling at the minimum voltage when a tile is idle; the paper
	// measures 7.5x.
	IdleFactor float64
}

// ModelParams are the inputs to the alpha-power synthesis.
type ModelParams struct {
	Name       string
	VMin, VMax float64
	FMaxMHz    float64 // frequency at VMax
	PMaxmW     float64 // total power at (VMax, FMax)
	LeakFrac   float64 // fraction of PMax that is leakage
	Vt         float64 // threshold voltage
	Alpha      float64 // velocity-saturation exponent
	NumPoints  int     // operating points across [VMin, VMax]
}

// defaults fills unset model fields with 12nm-class values.
func (p ModelParams) defaults() ModelParams {
	if p.Vt == 0 {
		p.Vt = 0.30
	}
	if p.Alpha == 0 {
		p.Alpha = 1.3
	}
	if p.LeakFrac == 0 {
		p.LeakFrac = 0.12
	}
	if p.NumPoints == 0 {
		p.NumPoints = 11
	}
	return p
}

// Synthesize builds a Curve from the alpha-power model.
func Synthesize(p ModelParams) *Curve {
	p = p.defaults()
	if p.VMin <= p.Vt || p.VMax <= p.VMin || p.FMaxMHz <= 0 || p.PMaxmW <= 0 {
		panic(fmt.Sprintf("power: invalid model params %+v", p))
	}
	c := &Curve{Name: p.Name, IdleFactor: 7.5}
	fOf := func(v float64) float64 {
		return p.FMaxMHz * math.Pow((v-p.Vt)/(p.VMax-p.Vt), p.Alpha)
	}
	pdyn := p.PMaxmW * (1 - p.LeakFrac)
	pleak := p.PMaxmW * p.LeakFrac
	for i := 0; i < p.NumPoints; i++ {
		v := p.VMin + (p.VMax-p.VMin)*float64(i)/float64(p.NumPoints-1)
		f := fOf(v)
		pw := pdyn*(v/p.VMax)*(v/p.VMax)*(f/p.FMaxMHz) + pleak*math.Pow(v/p.VMax, 3)
		c.Points = append(c.Points, Point{V: v, FMHz: f, PmW: pw})
	}
	sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].FMHz < c.Points[j].FMHz })
	return c
}

// FMax returns the maximum operating frequency in MHz.
func (c *Curve) FMax() float64 { return c.Points[len(c.Points)-1].FMHz }

// FMin returns the minimum characterized operating frequency in MHz.
func (c *Curve) FMin() float64 { return c.Points[0].FMHz }

// PMax returns the power at FMax in mW.
func (c *Curve) PMax() float64 { return c.Points[len(c.Points)-1].PmW }

// PMin returns the power at the minimum operating point in mW.
func (c *Curve) PMin() float64 { return c.Points[0].PmW }

// IdlePowerMW returns the power of an idle tile: frequency scaled far down
// at the minimum voltage, the paper's preferred alternative to power gating
// (Sec. V-A).
func (c *Curve) IdlePowerMW() float64 { return c.PMin() / c.IdleFactor }

// PowerAt returns the power in mW when running at fMHz, interpolating
// linearly between characterized points and clamping to the curve's range.
func (c *Curve) PowerAt(fMHz float64) float64 {
	pts := c.Points
	if fMHz <= pts[0].FMHz {
		return pts[0].PmW
	}
	if fMHz >= pts[len(pts)-1].FMHz {
		return pts[len(pts)-1].PmW
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].FMHz >= fMHz })
	a, b := pts[i-1], pts[i]
	t := (fMHz - a.FMHz) / (b.FMHz - a.FMHz)
	return a.PmW + t*(b.PmW-a.PmW)
}

// FreqAtPower returns the highest frequency in MHz sustainable within a
// power allocation of pmW, the inverse lookup the coin-to-frequency LUT
// implements. Allocations below PMin clamp to FMin; above PMax to FMax.
func (c *Curve) FreqAtPower(pmW float64) float64 {
	pts := c.Points
	if pmW <= pts[0].PmW {
		return pts[0].FMHz
	}
	if pmW >= pts[len(pts)-1].PmW {
		return pts[len(pts)-1].FMHz
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].PmW >= pmW })
	a, b := pts[i-1], pts[i]
	t := (pmW - a.PmW) / (b.PmW - a.PmW)
	return a.FMHz + t*(b.FMHz-a.FMHz)
}

// VoltageAt returns the supply voltage for frequency fMHz (the UVFR
// operating point), interpolated and clamped like PowerAt.
func (c *Curve) VoltageAt(fMHz float64) float64 {
	pts := c.Points
	if fMHz <= pts[0].FMHz {
		return pts[0].V
	}
	if fMHz >= pts[len(pts)-1].FMHz {
		return pts[len(pts)-1].V
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].FMHz >= fMHz })
	a, b := pts[i-1], pts[i]
	t := (fMHz - a.FMHz) / (b.FMHz - a.FMHz)
	return a.V + t*(b.V-a.V)
}

// The six accelerators of the evaluated SoCs (Fig. 12, Fig. 13). The peak
// powers are chosen so each SoC's combined maximum matches the paper's
// budget fractions: the 3x3 SoC's budgets of 120/60 mW are 30%/15% of the
// combined 400 mW (3 FFT + 2 Viterbi + 1 NVDLA), and the 4x4 SoC's budgets
// of 450/900 mW are roughly 33%/66% of the combined ~1390 mW.

// FFT returns the Fast Fourier Transform accelerator curve (depth
// estimation in the autonomous-vehicle workload); ASIC-measured 0.5-1.0 V.
func FFT() *Curve {
	return Synthesize(ModelParams{Name: "FFT", VMin: 0.5, VMax: 1.0, FMaxMHz: 800, PMaxmW: 64})
}

// Viterbi returns the Viterbi decoder curve (vehicle-to-vehicle
// communication); ASIC-measured 0.5-1.0 V.
func Viterbi() *Curve {
	return Synthesize(ModelParams{Name: "Viterbi", VMin: 0.5, VMax: 1.0, FMaxMHz: 800, PMaxmW: 59})
}

// NVDLA returns the NVIDIA Deep Learning Accelerator curve (object
// detection); ASIC-measured 0.6-1.0 V, an order of magnitude more power
// than the small accelerators — the 10x spread Sec. II-A cites.
func NVDLA() *Curve {
	return Synthesize(ModelParams{Name: "NVDLA", VMin: 0.6, VMax: 1.0, FMaxMHz: 700, PMaxmW: 90})
}

// GEMM returns the dense matrix-multiply accelerator curve (CNN inference);
// Joules-characterized 0.6-0.9 V.
func GEMM() *Curve {
	return Synthesize(ModelParams{Name: "GEMM", VMin: 0.6, VMax: 0.9, FMaxMHz: 750, PMaxmW: 150})
}

// Conv2D returns the 2D-convolution accelerator curve (CNN inference);
// Joules-characterized 0.6-0.9 V.
func Conv2D() *Curve {
	return Synthesize(ModelParams{Name: "Conv2D", VMin: 0.6, VMax: 0.9, FMaxMHz: 750, PMaxmW: 120})
}

// Vision returns the computer-vision accelerator curve (noise filtering,
// histogram equalization, DWT); Joules-characterized 0.6-0.9 V.
func Vision() *Curve {
	return Synthesize(ModelParams{Name: "Vision", VMin: 0.6, VMax: 0.9, FMaxMHz: 600, PMaxmW: 20})
}

// Catalog returns all accelerator curves by name. The curves are
// synthesized once per process and shared, so callers must treat them as
// read-only; the map itself is fresh on every call and theirs to edit.
func Catalog() map[string]*Curve { return maps.Clone(catalog()) }

var catalog = sync.OnceValue(func() map[string]*Curve {
	return map[string]*Curve{
		"FFT":     FFT(),
		"Viterbi": Viterbi(),
		"NVDLA":   NVDLA(),
		"GEMM":    GEMM(),
		"Conv2D":  Conv2D(),
		"Vision":  Vision(),
	}
})
