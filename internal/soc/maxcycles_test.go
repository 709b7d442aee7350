package soc

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"blitzcoin/internal/sim"
	"blitzcoin/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const cutGolden = "testdata/maxcycles_cut.golden"

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
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cutGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(cutGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cut points, golden has %d", len(got), len(want))
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
