package uvfr

import (
	"math"
	"sort"
	"testing"

	"blitzcoin/internal/power"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

// naiveRegulator is the regulator without its code tables: every
// frequency read evaluates the RO's alpha-power law at the supply with
// math.Pow, and every control step counts both the target and the clock
// from such a frequency.
type naiveRegulator struct {
	cfg       Config
	targetMHz float64
	droopV    float64
	settled   int
}

func (r *naiveRegulator) SetTargetMHz(f float64) { r.targetMHz, r.settled = f, 0 }
func (r *naiveRegulator) InjectDroop(dv float64) { r.droopV += dv }
func (r *naiveRegulator) FreqMHz() float64 {
	ro, v := r.cfg.RO, r.cfg.LDO.Vout()-r.droopV
	if v <= ro.Vt {
		return 0
	}
	return ro.FNomMHz * math.Pow((v-ro.Vt)/(ro.VNom-ro.Vt), ro.Alpha)
}

// count is the TDC readout of fMHz: the tile-clock edges in a window of
// NoC cycles.
func (r *naiveRegulator) count(fMHz float64) int {
	return int(fMHz * float64(r.cfg.TDC.WindowCycles) / (sim.NoCFrequencyHz / 1e6))
}

func (r *naiveRegulator) Readout() int { return r.count(r.FreqMHz()) }

func (r *naiveRegulator) Step() {
	errCounts := float64(r.count(r.targetMHz) - r.Readout())
	delta := r.cfg.PID.Step(errCounts)
	r.cfg.LDO.SetCode(r.cfg.LDO.Code() + int(math.Round(delta)))
	r.droopV *= 0.5
	if r.droopV < 1e-4 {
		r.droopV = 0
	}
	if math.Abs(errCounts) <= float64(r.cfg.SettleCounts) {
		r.settled++
	} else {
		r.settled = 0
	}
}

func (r *naiveRegulator) Settled() bool { return r.settled >= r.cfg.SettleSteps }

// referenceConfigs are the regulator configs the engine builds: one per
// catalog curve (the SoC runner's) and the droop figure's.
func referenceConfigs() (names []string, cfgs []Config) {
	catalog := power.Catalog()
	for name := range catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfgs = append(cfgs, ConfigForCurve(catalog[name]))
	}
	return append(names, "droop-figure"), append(cfgs, DefaultConfig(800, 0.5, 1.0))
}

func TestFreqTableMatchesRO(t *testing.T) {
	names, cfgs := referenceConfigs()
	for i, cfg := range cfgs {
		r := NewRegulator(cfg)
		if len(r.freq) != 256 {
			t.Fatalf("%s: %d table entries for an 8-bit LDO", names[i], len(r.freq))
		}
		if &NewRegulator(cfg).freq[0] != &r.freq[0] {
			t.Fatalf("%s: a second regulator built its own table", names[i])
		}
		for c := 0; c <= cfg.LDO.MaxCode(); c++ {
			r.cfg.LDO.code = c
			want := cfg.RO.FreqMHz(r.cfg.LDO.Vout())
			if got := r.FreqMHz(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s code %d: table %v, RO %v", names[i], c, got, want)
			}
		}
	}
}

// TestRegulatorMatchesNaiveReference runs the regulator beside the naive
// one from random start codes through random retargets, with random
// droops on the droop figure's config, and compares the TDC readout, the
// code and the frequency after every control step of every settle, and
// what SettleCycles reports for the settle. The regulators of one config
// share one count table, as they share the frequency table.
func TestRegulatorMatchesNaiveReference(t *testing.T) {
	names, cfgs := referenceConfigs()
	src := rng.New(4)
	for i, cfg := range cfgs {
		droops := names[i] == "droop-figure"
		fmax := cfg.RO.FNomMHz
		if &NewRegulator(cfg).count[0] != &NewRegulator(cfg).count[0] {
			t.Fatalf("%s: a second regulator built its own count table", names[i])
		}
		for trial := 0; trial < 40; trial++ {
			got := NewRegulator(cfg)
			want := &naiveRegulator{cfg: cfg}
			start := src.Intn(cfg.LDO.MaxCode() + 1)
			got.cfg.LDO.code, want.cfg.LDO.code = start, start
			for k := 0; k < 25; k++ {
				f := 1.1 * fmax * src.Float64()
				got.SetTargetMHz(f)
				want.SetTargetMHz(f)
				if droops && src.Intn(3) == 0 {
					dv := 0.15 * src.Float64()
					got.InjectDroop(dv)
					want.InjectDroop(dv)
					if g, w := got.FreqMHz(), want.FreqMHz(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s trial %d step %d: drooped %v MHz, want %v", names[i], trial, k, g, w)
					}
				}
				settle := *got
				cycles, ok := settle.SettleCycles(512)
				for s := 0; ; s++ {
					got.Step()
					want.Step()
					if got.Readout() != want.Readout() || got.cfg.LDO.Code() != want.cfg.LDO.Code() ||
						math.Float64bits(got.FreqMHz()) != math.Float64bits(want.FreqMHz()) ||
						got.Settled() != want.Settled() {
						t.Fatalf("%s trial %d retarget %d step %d (target %v MHz): (count %d, code %d, %v MHz, settled %v), want (count %d, code %d, %v MHz, settled %v)",
							names[i], trial, k, s, f, got.Readout(), got.cfg.LDO.Code(), got.FreqMHz(), got.Settled(),
							want.Readout(), want.cfg.LDO.Code(), want.FreqMHz(), want.Settled())
					}
					if want.Settled() || s == 511 {
						if w := sim.Cycles(s+1) * cfg.PeriodCycles; cycles != w || ok != want.Settled() {
							t.Fatalf("%s trial %d retarget %d: SettleCycles (%d, %v), want (%d, %v)",
								names[i], trial, k, cycles, ok, w, want.Settled())
						}
						break
					}
				}
			}
		}
	}
}
