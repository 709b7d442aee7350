package soc

import (
	"fmt"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/power"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/workload"
)

func TestDMATrafficFlowsOnDMAPlanes(t *testing.T) {
	r := New(SoC3x3(120, SchemeBC, 1))
	res := r.Run(workload.AutonomousVehicleParallel())
	if !res.Completed {
		t.Fatal("run incomplete")
	}
	d0 := res.NoC.PerPlaneSent[noc.PlaneDMA0]
	d1 := res.NoC.PerPlaneSent[noc.PlaneDMA1]
	if d0 == 0 || d1 == 0 {
		t.Fatalf("DMA planes unused: %d/%d", d0, d1)
	}
	// Every task moves WorkCycles/256 flits in and out, split across the
	// two planes.
	var wantFlits uint64
	for _, task := range workload.AutonomousVehicleParallel().Tasks {
		wantFlits += 2 * uint64(task.WorkCycles/256)
	}
	if got := d0 + d1; got != wantFlits {
		t.Fatalf("DMA flits = %d, want %d", got, wantFlits)
	}
	// PM coin traffic is also present on plane 5.
	if res.NoC.PerPlaneSent[noc.PlanePM] == 0 {
		t.Fatal("no PM traffic recorded")
	}
}

func TestDMALengthensExecutionRealistically(t *testing.T) {
	// DMA brackets add time proportional to data volume: the makespan
	// must exceed the pure-compute critical path at Fmax, but not wildly.
	g := workload.AutonomousVehicleParallel()
	r := New(SoC3x3(400, SchemeBC, 2)) // ample budget: compute at ~Fmax
	res := r.Run(g)
	cp := g.CriticalPathWork() / power.NVDLA().FMax() // us, worst-clock bound
	if res.ExecMicros() < cp {
		t.Fatalf("exec %.1fus below the compute-only bound %.1fus", res.ExecMicros(), cp)
	}
	if res.ExecMicros() > cp*2 {
		t.Fatalf("exec %.1fus more than doubles the compute bound %.1fus — DMA model runaway",
			res.ExecMicros(), cp)
	}
}

func TestRandomDAGStress(t *testing.T) {
	// Property-style stress: random workloads over the 3x3 accelerator
	// set always complete under every scheme, conserve the cap, and keep
	// the harness invariants.
	accels := []string{"FFT", "Viterbi", "NVDLA"}
	for seed := uint64(0); seed < 6; seed++ {
		src := rng.New(1000 + seed)
		g := workload.RandomDAG(src, 12, accels, 10e3, 60e3, 3)
		for _, scheme := range []Scheme{SchemeBC, SchemeCRR} {
			r := New(SoC3x3(120, scheme, seed))
			res := r.Run(g)
			if !res.Completed {
				t.Fatalf("seed %d scheme %v: random DAG incomplete", seed, scheme)
			}
			// C-RR's multi-microsecond polling delay leaves stale grants
			// running while new ones ramp, so its transient overshoot on
			// bursty random churn is larger — exactly the "periods of
			// suboptimal operation" Sec. II-B attributes to centralized
			// control.
			tol := 0.40
			if scheme == SchemeCRR {
				tol = 0.80
			}
			if res.CapExceeded(tol) {
				t.Fatalf("seed %d scheme %v: peak %.1f mW far over budget",
					seed, scheme, res.PeakPowerMW)
			}
		}
	}
}

func TestRandomDAGValidAndDeterministic(t *testing.T) {
	a := workload.RandomDAG(rng.New(5), 40, []string{"FFT", "GEMM"}, 1e3, 9e3, 4)
	b := workload.RandomDAG(rng.New(5), 40, []string{"FFT", "GEMM"}, 1e3, 9e3, 4)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Tasks) != len(b.Tasks) {
		t.Fatal("nondeterministic size")
	}
	for i := range a.Tasks {
		if a.Tasks[i].WorkCycles != b.Tasks[i].WorkCycles || a.Tasks[i].Accel != b.Tasks[i].Accel {
			t.Fatalf("nondeterministic task %d", i)
		}
	}
}

func TestRandomDAGPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad params did not panic")
		}
	}()
	workload.RandomDAG(rng.New(1), 0, []string{"FFT"}, 1, 2, 1)
}

// A one-flit DMA train is a lone message, whose delivery the NoC credits
// when it lands; a longer train is credited as it is routed. Bursts of 1,
// 2 and 3 flits put one-flit trains on DMA0 alone, on both planes and on
// DMA1 beside a 2-flit train. Once a Static run, which sends nothing else,
// completes, every flit is delivered.
func TestDMALoneFlitBurstsDelivered(t *testing.T) {
	g := &workload.Graph{Name: "tiny"}
	for i, work := range []float64{300, 600, 900} { // 1, 2 and 3 flits each way
		g.Tasks = append(g.Tasks, workload.Task{ID: i, Name: fmt.Sprint("t", i), Accel: "FFT", WorkCycles: work})
	}
	res := New(SoC3x3(120, SchemeStatic, 1)).Run(g)
	if st := res.NoC; !res.Completed || st.Sent != 12 || st.Delivered != st.Sent || st.TotalHops == 0 {
		t.Fatalf("completed=%v sent=%d delivered=%d hops=%d, want true 12 12 and some hops",
			res.Completed, st.Sent, st.Delivered, st.TotalHops)
	}
}

// TestDMAEventsScaleWithBursts: a DMA burst costs the kernel one event per
// plane, not one per flit, on a healthy fabric and under a tile kill alike.
// The 4x4 CV-parallel x3 run under Static moves 14,202 flits; with an event
// per flit it executed 14,255 events, as one train per plane and burst it
// executes 209. With tile 5 killed at cycle 120,000 it executed 14,397
// events when a fault injector sent every flit on its own.
func TestDMAEventsScaleWithBursts(t *testing.T) {
	killed := SoC4x4(450, SchemeStatic, 1)
	killed.Faults = &fault.Config{TileKills: []fault.TileFault{{Tile: 5, At: 120_000}}}
	for _, cfg := range []Config{SoC4x4(450, SchemeStatic, 1), killed} {
		r := New(cfg)
		res := r.Run(workload.Repeat(workload.ComputerVisionParallel(), 3))
		if !res.Completed {
			t.Fatalf("faults %v: run incomplete", cfg.Faults != nil)
		}
		flits := res.NoC.PerPlaneSent[noc.PlaneDMA0] + res.NoC.PerPlaneSent[noc.PlaneDMA1]
		if ev := r.Kernel().Executed(); ev >= 1000 {
			t.Fatalf("faults %v: %d kernel events for %d DMA flits, want fewer than 1000", cfg.Faults != nil, ev, flits)
		}
	}
}
