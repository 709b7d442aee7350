package blitzcoin

import (
	"context"
	"strings"
	"testing"

	"blitzcoin/internal/experiments"
)

func TestThermalCapThroughPublicAPI(t *testing.T) {
	capped := SimulateExchange(ExchangeOptions{
		Dim: 8, Torus: true, RandomPairing: true, Init: InitHotspot,
		TargetPerTile: 16, CoinsPerTile: 8, ThermalCap: 50, Seed: 3,
	})
	if !capped.CoinsConserved {
		t.Fatal("thermal cap broke conservation")
	}
	if capped.ThermalRejects == 0 {
		t.Fatal("tight cap on a hotspot recorded no clamps")
	}
	free := SimulateExchange(ExchangeOptions{
		Dim: 8, Torus: true, RandomPairing: true, Init: InitHotspot,
		TargetPerTile: 16, CoinsPerTile: 8, Seed: 3,
	})
	if free.ThermalRejects != 0 {
		t.Fatal("uncapped run recorded clamps")
	}
}

func TestCPUPowerProxyTracksActivity(t *testing.T) {
	rows := experiments.CPUProxy()
	busy, idle := rows[0], rows[len(rows)-1]
	if idle.Target >= busy.Target {
		t.Fatalf("idle target %d not below busy %d", idle.Target, busy.Target)
	}
	for _, r := range rows {
		if r.EstimateMW <= 0 {
			t.Fatalf("%s: no power estimate", r.Phase)
		}
	}
}

func TestUVFRDroopContrast(t *testing.T) {
	rows := experiments.UVFRDroop(700, []float64{0.03, 0.08})
	small, large := rows[0], rows[1]
	// Both droops stretch the UVFR clock; the guardband always costs power.
	for _, r := range rows {
		if r.UVFRDuringMHz >= r.UVFRBeforeMHz {
			t.Fatalf("%v V droop: UVFR clock did not stretch", r.DroopV)
		}
		if r.GuardbandPenaltyPct <= 0 {
			t.Fatalf("%v V droop: guardband penalty missing", r.DroopV)
		}
	}
	if small.ConventionalViolated {
		t.Fatal("30mV droop should sit inside the 50mV guardband")
	}
	if !large.ConventionalViolated {
		t.Fatal("80mV droop should breach the guardband")
	}
}

// The figures of the features the paper sketches beyond its core
// deployment print the rows they reproduce: the thermal guard's
// convergence and clamps, the CPU proxy's estimates and coin targets, and
// the UVFR/conventional droop contrast.
func TestExtensionFigureLines(t *testing.T) {
	want := map[string][]string{
		"thermal-cap": {
			"uncapped                     converged=true in 342 cycles, 0 exchanges clamped, pool conserved=true",
			"cap=60 coins/neighborhood    converged=true in 377 cycles, 26 exchanges clamped, pool conserved=true",
		},
		"cpu-proxy": {
			"compute-bound   estimate=  22.8 mW -> coin target 19",
			"memory-stalled  estimate=   7.3 mW -> coin target 10",
			"idle-spin       estimate=   2.8 mW -> coin target 10",
		},
		"uvfr-droop": {
			"droop 30 mV: UVFR clock 751 -> 707 MHz (stretches, always safe); conventional violated=false; guardband costs 11.0% power always",
			"droop 80 mV: UVFR clock 751 -> 636 MHz (stretches, always safe); conventional violated=true; guardband costs 11.0% power always",
		},
	}
	for name, lines := range want {
		fig, err := RunFigure(context.Background(), FigureOptions{Name: name, Seed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(fig.Lines, "\n"); got != strings.Join(lines, "\n") {
			t.Errorf("%s lines:\n%s\nwant:\n%s", name, got, strings.Join(lines, "\n"))
		}
	}
}
