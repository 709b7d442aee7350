package workload

import (
	"fmt"
	"reflect"
	"testing"

	"blitzcoin/internal/rng"
)

func allGraphs() []*Graph {
	return []*Graph{
		AutonomousVehicleParallel(),
		AutonomousVehicleDependent(),
		ComputerVisionParallel(),
		ComputerVisionDependent(),
		SevenAcceleratorSilicon(),
		SevenAcceleratorParallel(),
		SiliconSubset(3),
		SiliconSubset(4),
		SiliconSubset(5),
	}
}

func TestAllBuiltinsValidate(t *testing.T) {
	for _, g := range allGraphs() {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

func TestParallelScenariosHaveNoDeps(t *testing.T) {
	for _, g := range []*Graph{AutonomousVehicleParallel(), ComputerVisionParallel()} {
		for _, task := range g.Tasks {
			if len(task.Deps) != 0 {
				t.Fatalf("%s: WL-Par task %q has dependencies", g.Name, task.Name)
			}
		}
	}
}

func TestDependentScenariosHaveDeps(t *testing.T) {
	for _, g := range []*Graph{AutonomousVehicleDependent(), ComputerVisionDependent()} {
		any := false
		for _, task := range g.Tasks {
			if len(task.Deps) > 0 {
				any = true
			}
		}
		if !any {
			t.Fatalf("%s: WL-Dep scenario has no dependencies", g.Name)
		}
	}
}

func TestAVParallelMatchesSoC(t *testing.T) {
	// The 3x3 SoC has 3 FFT, 2 Viterbi, 1 NVDLA tiles (Fig. 12).
	counts := AutonomousVehicleParallel().AccelCounts()
	if counts["FFT"] != 3 || counts["Viterbi"] != 2 || counts["NVDLA"] != 1 {
		t.Fatalf("accelerator mix = %v", counts)
	}
}

func TestCVParallelMatchesSoC(t *testing.T) {
	// The 4x4 SoC has 13 accelerator tiles.
	g := ComputerVisionParallel()
	if len(g.Tasks) != 13 {
		t.Fatalf("task count = %d, want 13", len(g.Tasks))
	}
	counts := g.AccelCounts()
	if counts["Vision"] != 4 || counts["GEMM"] != 5 || counts["Conv2D"] != 4 {
		t.Fatalf("accelerator mix = %v", counts)
	}
}

func TestSiliconWorkloadUsesSevenAccelerators(t *testing.T) {
	g := SevenAcceleratorSilicon()
	if len(g.Tasks) != 7 {
		t.Fatalf("task count = %d, want 7", len(g.Tasks))
	}
	counts := g.AccelCounts()
	if counts["NVDLA"] != 1 || counts["FFT"] != 2 || counts["Viterbi"] != 4 {
		t.Fatalf("mix = %v, want 1 NVDLA + 2 FFT + 4 Viterbi", counts)
	}
}

func TestReadyRespectsDeps(t *testing.T) {
	g := AutonomousVehicleDependent()
	done := make([]bool, len(g.Tasks))
	ready := g.Ready(done, nil)
	// Initially: both frame-0 FFTs and the frame-0 Viterbi RX.
	if len(ready) != 3 {
		t.Fatalf("initial ready = %v", ready)
	}
	// Completing the FFTs unlocks the NVDLA.
	done[0], done[1] = true, true
	found := false
	for _, id := range g.Ready(done, nil) {
		if g.Tasks[id].Name == "f0-nvdla" {
			found = true
		}
	}
	if !found {
		t.Fatal("NVDLA not ready after its FFT deps completed")
	}
}

func TestCriticalPathVsTotalWork(t *testing.T) {
	for _, g := range allGraphs() {
		cp := g.CriticalPathWork()
		tot := g.TotalWork()
		if cp <= 0 || cp > tot {
			t.Fatalf("%s: critical path %v vs total %v", g.Name, cp, tot)
		}
	}
	// A pure parallel graph's critical path is its longest single task.
	g := AutonomousVehicleParallel()
	var maxTask float64
	for _, task := range g.Tasks {
		if task.WorkCycles > maxTask {
			maxTask = task.WorkCycles
		}
	}
	if g.CriticalPathWork() != maxTask {
		t.Fatalf("parallel critical path %v, want %v", g.CriticalPathWork(), maxTask)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	g := &Graph{Name: "cyclic", Tasks: []Task{
		{ID: 0, Name: "a", Accel: "FFT", WorkCycles: 1, Deps: []int{1}},
		{ID: 1, Name: "b", Accel: "FFT", WorkCycles: 1, Deps: []int{0}},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidateAcceptsForwardDeps(t *testing.T) {
	// Task 0 waits on task 2, a dependency on a higher ID that is no cycle.
	g := &Graph{Name: "forward", Tasks: []Task{
		{ID: 0, Name: "a", Accel: "FFT", WorkCycles: 1, Deps: []int{2}},
		{ID: 1, Name: "b", Accel: "FFT", WorkCycles: 1, Deps: []int{0}},
		{ID: 2, Name: "c", Accel: "FFT", WorkCycles: 1},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Tasks[2].Deps = []int{1}
	if err := g.Validate(); err == nil {
		t.Fatal("cycle through a forward dependency not detected")
	}
}

func TestValidateCatchesBadDeps(t *testing.T) {
	g := &Graph{Name: "bad", Tasks: []Task{
		{ID: 0, Name: "a", Accel: "FFT", WorkCycles: 1, Deps: []int{7}},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("dangling dependency not detected")
	}
	g = &Graph{Name: "selfdep", Tasks: []Task{
		{ID: 0, Name: "a", Accel: "FFT", WorkCycles: 1, Deps: []int{0}},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("self dependency not detected")
	}
	g = &Graph{Name: "nowork", Tasks: []Task{
		{ID: 0, Name: "a", Accel: "FFT", WorkCycles: 0},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("zero work not detected")
	}
}

func TestRepeatChainsIterations(t *testing.T) {
	g := Repeat(AutonomousVehicleParallel(), 3)
	if len(g.Tasks) != 18 {
		t.Fatalf("repeated task count = %d", len(g.Tasks))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Iteration 1 roots must depend on iteration 0 sinks: the critical
	// path must now span all three iterations.
	single := AutonomousVehicleParallel().CriticalPathWork()
	if cp := g.CriticalPathWork(); cp != 3*single {
		t.Fatalf("repeated critical path %v, want %v", cp, 3*single)
	}
}

func TestRepeatPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Repeat(g,0) did not panic")
		}
	}()
	Repeat(AutonomousVehicleParallel(), 0)
}

func TestSiliconSubsetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SiliconSubset(9) did not panic")
		}
	}()
	SiliconSubset(9)
}

// refRepeat is Repeat by definition: each task's name and dependency list
// built on its own.
func refRepeat(g *Graph, k int) *Graph {
	n := len(g.Tasks)
	out := &Graph{Name: fmt.Sprintf("%s-x%d", g.Name, k)}
	isDep := make([]bool, n)
	for _, t := range g.Tasks {
		for _, d := range t.Deps {
			isDep[d] = true
		}
	}
	for c := 0; c < k; c++ {
		for _, t := range g.Tasks {
			nt := Task{ID: c*n + t.ID, Name: fmt.Sprintf("i%d-%s", c, t.Name), Accel: t.Accel, WorkCycles: t.WorkCycles}
			for _, d := range t.Deps {
				nt.Deps = append(nt.Deps, c*n+d)
			}
			if c > 0 && len(t.Deps) == 0 {
				for s := range g.Tasks {
					if !isDep[s] {
						nt.Deps = append(nt.Deps, (c-1)*n+s)
					}
				}
			}
			out.Tasks = append(out.Tasks, nt)
		}
	}
	return out
}

// TestRepeatMatchesDefinition compares Repeat with refRepeat on every
// built-in and on random DAGs, at counts up to 12 (two-digit copy
// prefixes), and checks that Repeat leaves its input as it was.
func TestRepeatMatchesDefinition(t *testing.T) {
	graphs := allGraphs()
	src := rng.New(29)
	for i := 0; i < 40; i++ {
		graphs = append(graphs, RandomDAG(src, 1+src.Intn(20), []string{"FFT", "GEMM"}, 1, 9, 3))
	}
	for _, g := range graphs {
		before := refRepeat(g, 1) // a deep copy, tasks renamed
		for _, k := range []int{1, 2, 3, 5, 12} {
			if got, want := Repeat(g, k), refRepeat(g, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s x%d:\n got %+v\nwant %+v", g.Name, k, got, want)
			}
		}
		if !reflect.DeepEqual(refRepeat(g, 1), before) {
			t.Fatalf("Repeat modified %s", g.Name)
		}
	}
}

// Repeat lays a chain out in a fixed number of allocations, however many
// copies it chains.
func TestRepeatAllocationsFixed(t *testing.T) {
	g := ComputerVisionDependent()
	three := testing.AllocsPerRun(10, func() { Repeat(g, 3) })
	thirty := testing.AllocsPerRun(10, func() { Repeat(g, 30) })
	if thirty != three {
		t.Fatalf("Repeat x3 made %.0f allocations, x30 %.0f", three, thirty)
	}
}
