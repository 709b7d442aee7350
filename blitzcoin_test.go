package blitzcoin

import (
	"bytes"
	"strings"
	"testing"
)

func TestSimulateExchangeDefaultsConverge(t *testing.T) {
	res := SimulateExchange(ExchangeOptions{RandomPairing: true, Torus: true, Seed: 1})
	if !res.Converged {
		t.Fatalf("default exchange did not converge: %+v", res)
	}
	if !res.CoinsConserved {
		t.Fatal("coin pool not conserved")
	}
	if res.ConvergenceMicros <= 0 || res.PacketsToConvergence == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestSimulateExchangeSqrtScaling(t *testing.T) {
	// The headline claim: quadrupling N grows convergence time far less
	// than 4x.
	run := func(d int) float64 {
		var sum float64
		for s := uint64(0); s < 5; s++ {
			r := SimulateExchange(ExchangeOptions{
				Dim: d, Torus: true, RandomPairing: true, Seed: 100 + s,
			})
			if !r.Converged {
				t.Fatalf("d=%d did not converge", d)
			}
			sum += float64(r.ConvergenceCycles)
		}
		return sum / 5
	}
	if ratio := run(16) / run(8); ratio > 3.2 {
		t.Fatalf("convergence ratio %.2f for 4x tiles, want about 2", ratio)
	}
}

func TestSimulateExchangeModesAndInits(t *testing.T) {
	for _, mode := range []ExchangeMode{OneWay, FourWay} {
		for _, init := range []InitDistribution{InitRandom, InitUniform, InitHotspot} {
			res := SimulateExchange(ExchangeOptions{
				Dim: 6, Torus: true, Mode: mode, Init: init,
				RandomPairing: true, Seed: 7,
			})
			if !res.Converged {
				t.Fatalf("mode=%s init=%s did not converge", mode, init)
			}
		}
	}
}

func TestSimulateExchangeHeterogeneous(t *testing.T) {
	homo := SimulateExchange(ExchangeOptions{
		Dim: 10, Torus: true, RandomPairing: true, AccelTypes: 1, Seed: 3,
	})
	hetero := SimulateExchange(ExchangeOptions{
		Dim: 10, Torus: true, RandomPairing: true, AccelTypes: 8, Seed: 3,
	})
	if !homo.Converged || !hetero.Converged {
		t.Fatal("runs did not converge")
	}
}

func TestSimulateExchangePanicsOnBadOptions(t *testing.T) {
	for name, opts := range map[string]ExchangeOptions{
		"tiny mesh": {Dim: 1},
		"bad mode":  {Mode: "3-way"},
		"bad init":  {Init: "corner"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			SimulateExchange(opts)
		}()
	}
}

func TestRunSoCDefaults(t *testing.T) {
	res := RunSoC(SoCOptions{Seed: 1})
	if !res.Completed {
		t.Fatalf("default run incomplete: %s", res.String())
	}
	if res.Scheme != "BC" || res.SoC != "soc-3x3" {
		t.Fatalf("unexpected defaults: %s", res.String())
	}
	if res.UtilizationPct < 50 {
		t.Fatalf("suspiciously low utilization: %s", res.String())
	}
}

func TestRunSoCAllPlatformsAndSchemes(t *testing.T) {
	for _, socName := range []string{"3x3", "4x4", "6x6"} {
		for _, scheme := range []Scheme{BC, BCC, CRR, Static} {
			res := RunSoC(SoCOptions{SoC: socName, Scheme: scheme, Repeat: 1, Seed: 2})
			if !res.Completed {
				t.Fatalf("%s/%s incomplete", socName, scheme)
			}
		}
	}
}

func TestRunSoCBlitzCoinBeatsCRR(t *testing.T) {
	bc := RunSoC(SoCOptions{Scheme: BC, Seed: 5})
	crr := RunSoC(SoCOptions{Scheme: CRR, Seed: 5})
	if bc.ExecMicros >= crr.ExecMicros {
		t.Fatalf("BC %.1fus not faster than C-RR %.1fus", bc.ExecMicros, crr.ExecMicros)
	}
	if bc.MedianResponseMicros >= crr.MedianResponseMicros {
		t.Fatalf("BC response %.2fus not below C-RR %.2fus",
			bc.MedianResponseMicros, crr.MedianResponseMicros)
	}
}

func TestRunSoCPowerTraceCSV(t *testing.T) {
	res := RunSoC(SoCOptions{Repeat: 1, Seed: 1})
	var buf bytes.Buffer
	if err := res.WritePowerTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[0], "cycle,") {
		t.Fatalf("csv malformed: %d lines, header %q", len(lines), lines[0])
	}
}

func TestRunSoCPanicsOnUnknowns(t *testing.T) {
	for name, opts := range map[string]SoCOptions{
		"bad soc":      {SoC: "9x9"},
		"bad scheme":   {Scheme: "MAGIC"},
		"bad workload": {Workload: "crypto-mining"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			RunSoC(opts)
		}()
	}
}

func TestScalingModelAPI(t *testing.T) {
	models := PaperScalingModels()
	byName := map[string]ScalingModel{}
	for _, m := range models {
		byName[m.Name] = m
	}
	bc, ok := byName["BC"]
	if !ok || bc.Law != "O(sqrt(N))" {
		t.Fatalf("BC model missing or wrong law: %+v", byName)
	}
	// Paper: BC supports about 1000 accelerators at Tw = 7 ms.
	if n := bc.NMax(7000); n < 900 || n > 1200 {
		t.Fatalf("BC NMax(7ms) = %.0f", n)
	}
}

func TestFitScalingAPI(t *testing.T) {
	m := FitScaling("X", "O(N)", []float64{2, 4, 8}, []float64{2, 4, 8})
	if m.TauMicros != 1 {
		t.Fatalf("tau = %v, want 1", m.TauMicros)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad law did not panic")
			}
		}()
		FitScaling("X", "O(log N)", []float64{1}, []float64{1})
	}()
}

func TestDeterminism(t *testing.T) {
	a := RunSoC(SoCOptions{Seed: 9, Repeat: 1})
	b := RunSoC(SoCOptions{Seed: 9, Repeat: 1})
	if a.ExecMicros != b.ExecMicros || a.AvgPowerMW != b.AvgPowerMW {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}
