package workload_test

import (
	"reflect"
	"sync"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/workload"
)

// TestSharedGraphsStayReadOnly runs every built-in workload as shared, on
// its platform, under all six schemes at once, plus one run whose tile is
// killed mid-task, chaining each graph with Repeat alongside; then every
// shared graph must still deep-equal a freshly built one. Under -race the
// concurrent runs also catch any write to a shared graph as a race.
func TestSharedGraphsStayReadOnly(t *testing.T) {
	// The platform each built-in runs on, in Builtins order.
	platforms := []soc.Config{
		soc.SoC3x3(120, 0, 3), soc.SoC3x3(120, 0, 3),
		soc.SoC4x4(450, 0, 3), soc.SoC4x4(450, 0, 3),
		soc.SoC6x6(200, 0, 3), soc.SoC6x6(200, 0, 3),
	}
	shared := workload.Builtins()
	var wg sync.WaitGroup
	results := make([]soc.Result, 0, 6*len(shared)+1)
	var mu sync.Mutex
	run := func(cfg soc.Config, g *workload.Graph) {
		defer wg.Done()
		workload.Repeat(g, 2)
		res := soc.New(cfg).Run(g)
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	}
	for i, g := range shared {
		for _, scheme := range []soc.Scheme{soc.SchemeBC, soc.SchemeBCC, soc.SchemeCRR, soc.SchemeTS, soc.SchemePT, soc.SchemeStatic} {
			cfg := platforms[i]
			cfg.Scheme = scheme
			wg.Add(1)
			go run(cfg, g)
		}
	}
	// Tile 1 of the 3x3 SoC is an FFT tile, busy at cycle 20,000.
	killed := soc.SoC3x3(120, soc.SchemeStatic, 3)
	killed.Faults = &fault.Config{TileKills: []fault.TileFault{{Tile: 1, At: 20_000}}}
	wg.Add(1)
	go run(killed, shared[0])
	wg.Wait()

	requeued := 0
	for _, res := range results {
		if !res.Completed {
			t.Errorf("%s %s %s: incomplete", res.SoC, res.Scheme, res.Workload)
		}
		requeued += res.TasksRequeued
	}
	if requeued == 0 {
		t.Error("the kill caught no running task")
	}
	for i, fresh := range workload.Fresh() {
		if !reflect.DeepEqual(shared[i], fresh) {
			t.Errorf("shared %s differs from a fresh build", fresh.Name)
		}
	}
}
