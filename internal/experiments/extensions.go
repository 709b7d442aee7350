package experiments

import (
	"fmt"

	"blitzcoin/internal/cpuproxy"
	"blitzcoin/internal/uvfr"
)

// ThermalCapRow is one run of the thermal hotspot guard study (Sec. III-B):
// a hotspot-initialized exchange under a neighborhood coin cap (0 means
// uncapped).
type ThermalCapRow struct {
	CapCoins  int64
	Converged bool
	Cycles    uint64
	Clamped   uint64 // exchanges the guard clamped
	Conserved bool
}

// String renders the row.
func (r ThermalCapRow) String() string {
	label := "uncapped"
	if r.CapCoins > 0 {
		label = fmt.Sprintf("cap=%d coins/neighborhood", r.CapCoins)
	}
	return fmt.Sprintf("%-28s converged=%v in %d cycles, %d exchanges clamped, pool conserved=%v",
		label, r.Converged, r.Cycles, r.Clamped, r.Conserved)
}

// CPUProxyRow is one activity phase of the CPU power-proxy study (Sec.
// IV-C): the smoothed power estimate after the phase and the coin target
// it gives the core.
type CPUProxyRow struct {
	Phase      string
	EstimateMW float64
	Target     int64
}

// String renders the row.
func (r CPUProxyRow) String() string {
	return fmt.Sprintf("%-15s estimate=%6.1f mW -> coin target %2d", r.Phase, r.EstimateMW, r.Target)
}

// CPUProxy drives a CVA6 tile's coin target from activity counters: eight
// 100k-cycle windows at 800 MHz of each of a compute-bound, a
// memory-stalled and an idle-spinning phase, so the estimate settles on
// each before its row is taken. The proxy smooths with an EWMA of 0.3, the
// dynamic curve keeps 12% leakage, a coin is worth 1.5 mW and targets move
// only by more than 2 coins.
func CPUProxy() []CPUProxyRow {
	m := &cpuproxy.Manager{
		Proxy:           cpuproxy.NewProxy(cpuproxy.DefaultWeights(), 0.3),
		Curve:           cpuproxy.NewDynamicCurve(cpuproxy.CVA6(), 0.12),
		MWPerCoin:       1.5,
		HysteresisCoins: 2,
	}
	phases := []struct {
		name string
		c    cpuproxy.Counters
	}{
		{"compute-bound", cpuproxy.Counters{Cycles: 100000, Instr: 200000, MemOps: 25000, FPOps: 25000, BranchMiss: 1000}},
		{"memory-stalled", cpuproxy.Counters{Cycles: 100000, Instr: 20000, MemOps: 15000}},
		{"idle-spin", cpuproxy.Counters{Cycles: 100000, Instr: 2000}},
	}
	rows := make([]CPUProxyRow, len(phases))
	for i, ph := range phases {
		var target int64
		for w := 0; w < 8; w++ {
			target = m.Sample(ph.c, 800)
		}
		rows[i] = CPUProxyRow{Phase: ph.name, EstimateMW: m.Proxy.EstimateMW(), Target: target}
	}
	return rows
}

// DroopRow contrasts the UVFR with a conventional dual-loop actuator under
// one transient supply droop (Sec. II-C, Fig. 9). The UVFR's
// critical-path-replica clock stretches and stays safe by construction;
// the conventional PLL holds its frequency and relies on a static voltage
// guardband, which the droop can breach and which costs dynamic power all
// the time.
type DroopRow struct {
	DroopV               float64
	UVFRBeforeMHz        float64
	UVFRDuringMHz        float64
	ConventionalViolated bool
	// GuardbandPenaltyPct is the steady-state dynamic-power overhead of
	// the conventional guardband; the UVFR's is zero.
	GuardbandPenaltyPct float64
}

// String renders the row.
func (r DroopRow) String() string {
	return fmt.Sprintf("droop %2.0f mV: UVFR clock %.0f -> %.0f MHz (stretches, always safe); "+
		"conventional violated=%v; guardband costs %.1f%% power always",
		r.DroopV*1000, r.UVFRBeforeMHz, r.UVFRDuringMHz, r.ConventionalViolated, r.GuardbandPenaltyPct)
}

// UVFRDroop settles both actuators of an 800 MHz, 0.5-1.0 V tile at
// fTargetMHz, injects each droop (volts) into a fresh pair, and reports
// the contrast. The conventional design carries a 50 mV guardband.
func UVFRDroop(fTargetMHz float64, droopsV []float64) []DroopRow {
	rows := make([]DroopRow, len(droopsV))
	for i, dv := range droopsV {
		reg := uvfr.NewRegulator(uvfr.DefaultConfig(800, 0.5, 1.0))
		reg.SetTargetMHz(fTargetMHz)
		reg.SettleCycles(2000)
		before := reg.FreqMHz()
		reg.InjectDroop(dv)

		conv := uvfr.NewConventional(800, 0.5, 1.0, 0.05)
		conv.SetTargetMHz(fTargetMHz)
		conv.InjectDroop(dv)

		rows[i] = DroopRow{
			DroopV:               dv,
			UVFRBeforeMHz:        before,
			UVFRDuringMHz:        reg.FreqMHz(),
			ConventionalViolated: conv.TimingViolated(),
			GuardbandPenaltyPct:  100 * conv.GuardbandPowerPenalty(),
		}
	}
	return rows
}
