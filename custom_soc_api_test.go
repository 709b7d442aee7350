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

// customErrorCases are invalid custom SoC requests, one per check build
// makes, keyed by what is wrong.
func customErrorCases() map[string]func(*CustomSoCOptions) {
	return map[string]func(*CustomSoCOptions){
		"bad grid":      func(o *CustomSoCOptions) { o.W = 0 },
		"tile mismatch": func(o *CustomSoCOptions) { o.Tiles = o.Tiles[:3] },
		"bad scheme":    func(o *CustomSoCOptions) { o.Scheme = "RR" },
		"bad kind":      func(o *CustomSoCOptions) { o.Tiles[0].Kind = "gpu" },
		"bad accel":     func(o *CustomSoCOptions) { o.Tiles[1].Accel = "TPU" },
		"no accels": func(o *CustomSoCOptions) {
			for i := range o.Tiles {
				o.Tiles[i] = TileSpec{Kind: "mem"}
			}
		},
		"no budget":     func(o *CustomSoCOptions) { o.BudgetMW = 0 },
		"no tasks":      func(o *CustomSoCOptions) { o.Tasks = nil },
		"zero work":     func(o *CustomSoCOptions) { o.Tasks[1].WorkCycles = 0 },
		"no task accel": func(o *CustomSoCOptions) { o.Tasks[2].Name, o.Tasks[2].Accel = "", "" },
		"dangling dep":  func(o *CustomSoCOptions) { o.Tasks[2].Deps = []int{0, 7} },
		"self dep":      func(o *CustomSoCOptions) { o.Tasks[1].Deps = []int{1} },
		"cyclic deps":   func(o *CustomSoCOptions) { o.Tasks[0].Deps = []int{2} },
		"missing accel": func(o *CustomSoCOptions) { o.Tasks[1].Accel = "GEMM" },
		"missing accel, repeated": func(o *CustomSoCOptions) {
			o.Repeat = 3
			o.Tasks[2].Accel = "Vision"
		},
	}
}

// TestRunCustomSoCErrors pins what Validate and Execute say about each
// invalid custom request: Execute validates by assembling the request
// once and runs what it assembled, and both report the texts the
// separate validation and assembly steps reported.
func TestRunCustomSoCErrors(t *testing.T) {
	want := map[string]string{
		"bad accel":               "soc custom-3x2: tile 1 has unknown accelerator \"TPU\"",
		"bad grid":                "blitzcoin: invalid grid 0x2",
		"bad kind":                "blitzcoin: tile 0 has unknown kind \"gpu\"",
		"bad scheme":              "blitzcoin: unknown scheme \"RR\"",
		"cyclic deps":             "workload custom-3x2-workload: dependency cycle",
		"dangling dep":            "workload custom-3x2-workload: task \"c\" depends on unknown task 7",
		"missing accel":           "blitzcoin: workload needs accelerator \"GEMM\", absent from the layout",
		"missing accel, repeated": "blitzcoin: workload needs accelerator \"Vision\", absent from the layout",
		"no accels":               "soc custom-3x2: no managed accelerator tiles",
		"no budget":               "soc custom-3x2: non-positive budget",
		"no task accel":           "workload custom-3x2-workload: task \"task-2\" has no accelerator type",
		"no tasks":                "blitzcoin: custom SoC needs at least one task",
		"self dep":                "workload custom-3x2-workload: task \"b\" depends on itself",
		"tile mismatch":           "blitzcoin: 3 tiles for a 3x2 grid",
		"zero work":               "workload custom-3x2-workload: task \"b\" has non-positive work",
	}
	cases := customErrorCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d pinned texts", len(cases), len(want))
	}
	for name, mut := range cases {
		o := customLayout()
		mut(&o)
		for via, err := range map[string]error{
			"CustomSoCOptions.Validate": o.Validate(),
			"Request.Validate":          Request{CustomSoC: &o}.Validate(),
		} {
			if err == nil || err.Error() != want[name] {
				t.Errorf("%s: %s = %v, want %q", name, via, err, want[name])
			}
		}
		if _, err := runCustom(o); err == nil || err.Error() != want[name] {
			t.Errorf("%s: Execute = %v, want %q", name, err, want[name])
		}
	}
}
