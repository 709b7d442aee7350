package blitzcoin_test

import (
	"fmt"

	"blitzcoin"
)

// The coin exchange from Fig. 2: tiles equalize their has/max ratios while
// conserving the pool exactly.
func ExampleSimulateExchange() {
	res := blitzcoin.SimulateExchange(blitzcoin.ExchangeOptions{
		Dim:           10,
		Torus:         true,
		RandomPairing: true,
		Init:          blitzcoin.InitHotspot,
		Seed:          42,
	})
	fmt.Println("converged:", res.Converged)
	fmt.Println("coins conserved:", res.CoinsConserved)
	fmt.Println("sub-microsecond:", res.ConvergenceMicros < 1.0)
	// Output:
	// converged: true
	// coins conserved: true
	// sub-microsecond: true
}

// A full-SoC run: BlitzCoin on the 3x3 autonomous-vehicle platform.
func ExampleRunSoC() {
	res := blitzcoin.RunSoC(blitzcoin.SoCOptions{
		SoC:    "3x3",
		Scheme: blitzcoin.BC,
		Seed:   42,
	})
	fmt.Println("completed:", res.Completed)
	fmt.Println("scheme:", res.Scheme)
	fmt.Println("within budget:", res.AvgPowerMW <= res.BudgetMW*1.1)
	// Output:
	// completed: true
	// scheme: BC
	// within budget: true
}

// Eq. 5.3: how many accelerators BlitzCoin supports at a given workload
// phase duration.
func ExampleScalingModel_NMax() {
	for _, m := range blitzcoin.PaperScalingModels() {
		if m.Name != "BC" {
			continue
		}
		fmt.Println("BC law:", m.Law)
		fmt.Println("supports ~1000 accelerators at Tw=7ms:", m.NMax(7000) > 1000)
	}
	// Output:
	// BC law: O(sqrt(N))
	// supports ~1000 accelerators at Tw=7ms: true
}
