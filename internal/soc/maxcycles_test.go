package soc

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const (
	cutGolden        = "testdata/maxcycles_cut.golden"
	cutBCGolden      = "testdata/maxcycles_cut_bc.golden"
	cutFaultedGolden = "testdata/maxcycles_cut_faulted.golden"
)

// cutPoint renders the observable outcome of one run stopped at MaxCycles:
// whether it completed, its makespan, its mean power (exact bits) and its
// activity-change count.
func cutPoint(scheme Scheme, maxCycles sim.Cycles) string {
	cfg := SoC4x4(450, scheme, 1)
	cfg.MaxCycles = maxCycles
	res := New(cfg).Run(workload.Repeat(workload.ComputerVisionParallel(), 3))
	return fmt.Sprintf("%s %d %t %d %s %d", scheme, maxCycles, res.Completed, res.ExecCycles,
		strconv.FormatFloat(res.AvgPowerMW, 'g', -1, 64), res.ActivityChanges)
}

// TestMaxCyclesCutMidBurst stops the DMA-dominated 4x4 CV-parallel x3 run
// every 500 cycles under Static and C-RR. A run stops after the first event
// at or after MaxCycles; many of these cut points fall inside a DMA burst,
// where the stop cycle must not depend on how the burst's flits are
// scheduled. The golden was generated with one kernel event per flit.
func TestMaxCyclesCutMidBurst(t *testing.T) {
	if testing.Short() {
		t.Skip("1318 SoC runs")
	}
	var got []string
	for _, scheme := range []Scheme{SchemeStatic, SchemeCRR} {
		for mc := sim.Cycles(500); mc < 330_000; mc += 500 {
			got = append(got, cutPoint(scheme, mc))
		}
	}
	checkCutGolden(t, cutGolden, got)
}

// bcCutPoint renders one BC run of the 3x3 AV-parallel x3 frame at 120 mW,
// seed 1, stopped at MaxCycles: what cutPoint renders, the response count
// and sum, and every NoC counter.
func bcCutPoint(maxCycles sim.Cycles) string {
	cfg := SoC3x3(120, SchemeBC, 1)
	cfg.MaxCycles = maxCycles
	res := New(cfg).Run(workload.Repeat(workload.AutonomousVehicleParallel(), 3))
	var sum sim.Cycles
	for _, c := range res.Responses {
		sum += c
	}
	return fmt.Sprintf("%d %t %d %x %d %d %d %+v", maxCycles, res.Completed, res.ExecCycles,
		math.Float64bits(res.AvgPowerMW), res.ActivityChanges, len(res.Responses), sum, res.NoC)
}

// TestMaxCyclesCutBC stops the BC 3x3 frame every 2,500 cycles through
// its 310,961-cycle makespan. Most cut points leave coin messages in
// flight, so the NoC counters pin when each message's send-side and
// delivery-side statistics are credited. The static and C-RR golden above
// sends no coin messages at all.
func TestMaxCyclesCutBC(t *testing.T) {
	if testing.Short() {
		t.Skip("125 SoC runs")
	}
	var got []string
	for mc := sim.Cycles(2_500); mc <= 312_500; mc += 2_500 {
		got = append(got, bcCutPoint(mc))
	}
	checkCutGolden(t, cutBCGolden, got)
}

// faultedCutPoint renders one run of cutPoint's frame under a tile kill and
// a link failure, stopped at MaxCycles: what cutPoint renders and the NoC's
// send-side and drop counters.
func faultedCutPoint(scheme Scheme, maxCycles sim.Cycles) string {
	cfg := SoC4x4(450, scheme, 1)
	cfg.MaxCycles = maxCycles
	cfg.Faults = &fault.Config{
		TileKills: []fault.TileFault{{Tile: 5, At: 120_000}},
		LinkFails: []fault.LinkFault{{A: 8, B: 9, At: 200_000}},
	}
	res := New(cfg).Run(workload.Repeat(workload.ComputerVisionParallel(), 3))
	s := res.NoC
	return fmt.Sprintf("%s %d %t %d %x %d %d %v %v %d %d %v", scheme, maxCycles, res.Completed,
		res.ExecCycles, math.Float64bits(res.AvgPowerMW), res.ActivityChanges,
		s.Sent, s.PerPlaneSent, s.PerKindSent, s.ContentionCyc, s.Dropped, s.PerPlaneDropped)
}

// TestMaxCyclesCutFaulted stops cutPoint's frame every 500 cycles with
// tile 5 killed at cycle 120,000 and link 8-9 failed at 200,000. DMA
// trains to the dead tile and across the dead link are lost, so the NoC
// counters pin how a lost train is charged, and the stop cycles pin where
// a faulted run ends. The golden was generated with each DMA flit routed
// as its own packet under the injector.
func TestMaxCyclesCutFaulted(t *testing.T) {
	if testing.Short() {
		t.Skip("2078 SoC runs")
	}
	var got []string
	for _, scheme := range []Scheme{SchemeStatic, SchemeCRR} {
		for mc := sim.Cycles(500); mc < 520_000; mc += 500 {
			got = append(got, faultedCutPoint(scheme, mc))
		}
	}
	checkCutGolden(t, cutFaultedGolden, got)
}

// checkCutGolden compares cut points against a golden, one per line, or
// rewrites it under -update.
func checkCutGolden(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cut points, %s has %d", len(got), path, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("cut point differs:\n got %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cut points differ", bad, len(got))
	}
}
