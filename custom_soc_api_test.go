package blitzcoin

import (
	"context"
	"strings"
	"testing"
)

// customLayout returns a small valid 2x3 platform: CPU, mem, and four...
// no — one CPU, one mem, four accelerators.
func customLayout() CustomSoCOptions {
	return CustomSoCOptions{
		W: 3, H: 2, Torus: true,
		Tiles: []TileSpec{
			{Kind: "cpu"},
			{Kind: "accel", Accel: "FFT"},
			{Kind: "accel", Accel: "FFT"},
			{Kind: "mem"},
			{Kind: "accel", Accel: "Viterbi"},
			{Kind: "accel", Accel: "NVDLA"},
		},
		BudgetMW: 80,
		Tasks: []TaskSpec{
			{Name: "a", Accel: "FFT", WorkCycles: 20e3},
			{Name: "b", Accel: "Viterbi", WorkCycles: 15e3},
			{Name: "c", Accel: "NVDLA", WorkCycles: 30e3, Deps: []int{0, 1}},
		},
		Seed: 1,
	}
}

// runCustom runs a custom platform through Execute, the path blitzd
// takes for a custom_soc payload.
func runCustom(o CustomSoCOptions) (SoCResult, error) {
	res, err := Execute(context.Background(), Request{CustomSoC: &o})
	if err != nil {
		return SoCResult{}, err
	}
	return *res.SoC, nil
}

func TestRunCustomSoC(t *testing.T) {
	res, err := runCustom(customLayout())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("custom run incomplete: %s", res.String())
	}
	if res.Scheme != "BC" {
		t.Fatalf("default scheme = %s", res.Scheme)
	}
	if res.PeakPowerMW > 80*1.4 {
		t.Fatalf("cap blown: %.1f mW", res.PeakPowerMW)
	}
}

func TestRunCustomSoCAllSchemes(t *testing.T) {
	for _, s := range []Scheme{BC, BCC, CRR, TS, PT, Static} {
		o := customLayout()
		o.Scheme = s
		res, err := runCustom(o)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !res.Completed {
			t.Fatalf("%s incomplete", s)
		}
	}
}

func TestRunCustomSoCRepeat(t *testing.T) {
	o := customLayout()
	one, err := runCustom(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Repeat = 3
	three, err := runCustom(o)
	if err != nil {
		t.Fatal(err)
	}
	if three.ExecMicros <= one.ExecMicros*2 {
		t.Fatalf("3 frames (%.1fus) not much longer than 1 (%.1fus)",
			three.ExecMicros, one.ExecMicros)
	}
}

func TestRunCustomSoCErrors(t *testing.T) {
	cases := map[string]func(*CustomSoCOptions){
		"bad grid":      func(o *CustomSoCOptions) { o.W = 0 },
		"tile mismatch": func(o *CustomSoCOptions) { o.Tiles = o.Tiles[:3] },
		"bad kind":      func(o *CustomSoCOptions) { o.Tiles[0].Kind = "gpu" },
		"bad accel":     func(o *CustomSoCOptions) { o.Tiles[1].Accel = "TPU" },
		"no tasks":      func(o *CustomSoCOptions) { o.Tasks = nil },
		"missing accel": func(o *CustomSoCOptions) { o.Tasks[0].Accel = "GEMM" },
		"cyclic deps": func(o *CustomSoCOptions) {
			o.Tasks[0].Deps = []int{2}
		},
		"no budget": func(o *CustomSoCOptions) { o.BudgetMW = 0 },
	}
	for name, mut := range cases {
		o := customLayout()
		mut(&o)
		if _, err := runCustom(o); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestRandomWorkloadThroughCustomSoC(t *testing.T) {
	o := customLayout()
	o.Tasks = RandomWorkload(9, 10, []string{"FFT", "Viterbi", "NVDLA"}, 5e3, 25e3, 2)
	res, err := runCustom(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("random workload incomplete")
	}
	if !strings.Contains(res.Workload, "custom") {
		t.Fatalf("workload name %q", res.Workload)
	}
}
