// Package blitzcoin is a Go reproduction of "BlitzCoin: Fully Decentralized
// Hardware Power Management for Accelerator-Rich SoCs" (ISCA 2024).
//
// BlitzCoin manages the power budget of a many-accelerator system-on-chip
// without any central controller: each tile holds an integer number of
// power units ("coins") and repeatedly performs pairwise exchanges with its
// mesh neighbors that equalize every tile's has/max ratio while conserving
// the total pool. The budget therefore diffuses to the target allocation
// with a response time that scales as O(sqrt(N)) instead of the O(N) of
// centralized controllers, enabling SoCs with hundreds of accelerators.
//
// The package exposes one unified options surface and three layers beneath
// it:
//
//   - Request / Execute is the versioned entry point: a JSON-serializable
//     union over every computation the simulator offers (exchange sweeps,
//     SoC runs, custom platforms, figure reproductions), with explicit
//     defaults (Normalized), explicit validation (Validate), and a
//     canonical content hash (CanonicalHash) that the blitzd daemon keys
//     its result cache on;
//   - SimulateExchange runs the coin-exchange algorithm itself on a
//     simulated 2D-mesh NoC (the paper's Sec. III experiments);
//   - RunSoC runs full-system simulations of the paper's platforms:
//     accelerator tiles with power/frequency characterizations and UVFR
//     regulators executing workload DAGs under BlitzCoin or one of the
//     baseline controllers (Secs. V-VI); a custom platform runs through
//     Execute with a CustomSoC payload;
//   - FitScaling / ScalingModel project maximum supported SoC sizes
//     analytically (Sec. V-E, Fig. 21).
//
// Every paper figure and table, and the three features the paper sketches
// beyond its core deployment (the thermal hotspot guard, the CPU power
// proxy and the UVFR's droop tolerance), runs through one registry:
// RunFigure, or Execute with a Figure payload, by the names FigureNames
// lists.
//
// Everything is deterministic for a given Seed. All times are reported in
// NoC cycles (800 MHz, 1.25 ns) and microseconds.
package blitzcoin

import (
	"fmt"

	"blitzcoin/internal/scaling"
)

// ScalingModel is a fitted response-time law T(N) for one PM scheme
// (Sec. V-E).
type ScalingModel struct {
	// Name is the scheme ("BC", "BC-C", "C-RR", "TS", "PT", "SW").
	Name string `json:"name"`
	// Law is "O(N)" or "O(sqrt(N))".
	Law string `json:"law"`
	// TauMicros is the fitted scaling constant.
	TauMicros float64 `json:"tau_micros"`
}

// NMax returns the largest supported accelerator count for a workload phase
// duration of twMicros (Eqs. 5.1-5.3).
func (m ScalingModel) NMax(twMicros float64) float64 {
	return m.toInternal().NMax(twMicros)
}

func (m ScalingModel) toInternal() scaling.Model {
	law := scaling.Linear
	if m.Law == scaling.Sqrt.String() {
		law = scaling.Sqrt
	}
	return scaling.Model{Name: m.Name, Law: law, Tau: m.TauMicros}
}

// PaperScalingModels returns the models with the paper's fitted constants
// (Sec. VI-D: tau_BC = 0.20 us, tau_BCC = 0.66 us, tau_CRR = 0.96 us,
// tau_TS = 0.22 us).
func PaperScalingModels() []ScalingModel {
	var out []ScalingModel
	for _, name := range []string{"BC", "BC-C", "C-RR", "TS", "PT", "SW"} {
		m := scaling.PaperModels()[name]
		out = append(out, ScalingModel{Name: m.Name, Law: m.Law.String(), TauMicros: m.Tau})
	}
	return out
}

// FitScaling fits a response-time law through measured (N, microseconds)
// points; law must be "O(N)" or "O(sqrt(N))".
func FitScaling(name, law string, ns, responsesUs []float64) ScalingModel {
	if len(ns) != len(responsesUs) || len(ns) == 0 {
		panic("blitzcoin: FitScaling needs matching non-empty slices")
	}
	var l scaling.Law
	switch law {
	case "O(N)":
		l = scaling.Linear
	case "O(sqrt(N))":
		l = scaling.Sqrt
	default:
		panic(fmt.Sprintf("blitzcoin: unknown law %q", law))
	}
	pts := make([]scaling.Point, len(ns))
	for i := range ns {
		pts[i] = scaling.Point{N: ns[i], Response: responsesUs[i]}
	}
	m := scaling.Fit(name, l, pts)
	return ScalingModel{Name: m.Name, Law: m.Law.String(), TauMicros: m.Tau}
}
