package soc

import (
	"testing"

	"blitzcoin/internal/workload"
)

// runAllocs returns the heap allocations of soc.New plus Run for one 4x4
// C-RR run of g, the graph built beforehand.
func runAllocs(g *workload.Graph) float64 {
	return testing.AllocsPerRun(4, func() {
		New(SoC4x4(450, SchemeCRR, 1)).Run(g)
	})
}

// A SoC run allocates per platform, not per task: the tiles, their
// regulators, trace series, first points and names come in per-run slabs,
// and a DMA burst's continuation is a typed record in a reused slot, so
// chaining more frames of a workload adds no allocation per task. What the
// longer run still adds is growth: the kernel's event arena, the
// controller's response samples and the trace points past each series'
// first 16. Doubling CV-parallel from 4 frames to 8 adds 52 tasks and
// must add fewer than 52 allocations; two closures per task, one per DMA
// continuation, add 104.
func TestRunAllocatesPerPlatformNotPerTask(t *testing.T) {
	four := workload.Repeat(workload.ComputerVisionParallel(), 4)
	eight := workload.Repeat(workload.ComputerVisionParallel(), 8)
	a4, a8 := runAllocs(four), runAllocs(eight)
	added := len(eight.Tasks) - len(four.Tasks)
	t.Logf("x4: %.0f allocations, x8: %.0f (%d more tasks)", a4, a8, added)
	if a8-a4 >= float64(added) {
		t.Fatalf("x8 run made %.0f allocations, x4 %.0f: %.0f more for %d more tasks",
			a8, a4, a8-a4, added)
	}
}
