package controller

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"blitzcoin/internal/noc"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

const roundsGolden = "testdata/rounds.golden"

// roundsEnd is where every scripted run stops: past five 40,000-cycle C-RR
// rotations.
const roundsEnd sim.Cycles = 220_000

// step is one scripted activity change. An early step runs before the
// controller's own events of its cycle (it is scheduled before the
// controller starts); a late step runs after every event of its cycle
// (scriptedRun runs the kernel through the cycle, then calls SetTarget).
type step struct {
	at   sim.Cycles
	tile int
	mw   float64
	late bool
}

// roundLength is the span of one centralized round on the rig: the
// response of an isolated change under BC-C.
func roundLength(n int) sim.Cycles {
	k, net, specs := testRig(n)
	c := buildScheme("BC-C", k, net, specs, 100)
	c.Start()
	c.SetTarget(1, 50)
	k.Run(1 << 22)
	return c.ResponseSamples()[0]
}

// roundScript is the fixed change script for an n-tile rig whose
// centralized rounds last l cycles. Its fixed head covers the cases a
// round engine can get wrong; a seeded random tail follows.
func roundScript(n int, l sim.Cycles) []step {
	last := func(i int) int { return (n-1-i%n+n)%n + 1 } // counts down from tile n
	s := []step{
		{at: 0, tile: 1, mw: 60},
		// Mid-round, while the round is still polling: the round's
		// updates must see it when they land.
		{at: l / 2, tile: last(0), mw: 40},
		// On the rerun round's last cycle, before the round ends.
		{at: 2 * l, tile: 1, mw: 80},
		// On that round's last cycle, after it ends; the tile drops to 0.
		{at: 3 * l, tile: last(0), mw: 0, late: true},
		// Between two update landings of the round it started.
		{at: 4*l - 30*sim.Cycles(n), tile: last(1), mw: 70},
		// Two changes in one cycle, twice: both early, then early and late.
		{at: 6*l + 7, tile: last(2), mw: 30},
		{at: 6*l + 7, tile: 1, mw: 0},
		{at: 8 * l, tile: 1, mw: 100},
		{at: 8 * l, tile: last(2), mw: 0, late: true},
	}
	// Every tile active, so C-RR's grants depend on its rotation cursor;
	// then a round whose update landings straddle the second rotation.
	for i := 1; i <= n; i++ {
		s = append(s, step{at: 60_000, tile: i, mw: 90})
	}
	s = append(s, step{at: 80_000 - l + 30*sim.Cycles(n), tile: last(3), mw: 55})
	r := rng.New(uint64(1000 + n))
	levels := []float64{0, 0, 15, 40, 70, 100, 130}
	for i := 0; i < 40; i++ {
		s = append(s, step{
			at:   90_000 + sim.Cycles(r.Int63n(110_000)),
			tile: 1 + r.Intn(n),
			mw:   levels[r.Intn(len(levels))],
			late: r.Bool(),
		})
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].at < s[j].at })
	return s
}

// buildScheme constructs the named controller with the rig's tile 0 as its
// controller or market tile.
func buildScheme(name string, k *sim.Kernel, net *noc.Network, specs []TileSpec, budget float64) Controller {
	switch name {
	case "C-RR":
		return NewCRR(k, net, specs, budget, 0)
	case "BC-C":
		return NewBCC(k, net, specs, budget, 0)
	case "PT":
		return NewPriceTheory(k, net, specs, budget, 0)
	case "TS":
		return NewTokenSmart(k, net, specs, budget, TSConfig{})
	case "Static":
		return NewStatic(k, specs, budget)
	}
	panic("unknown scheme " + name)
}

// scriptedRun drives one controller through the script and renders every
// allocation it reported (cycle, tile, exact mW bits), then its response
// samples.
func scriptedRun(name string, n int, script []step) []string {
	k, net, specs := testRig(n)
	c := buildScheme(name, k, net, specs, 60*float64(n))
	out := []string{fmt.Sprintf("%s n=%d", name, n)}
	c.OnAllocation(func(tile int, mw float64) {
		out = append(out, fmt.Sprintf("%d %d %016x", k.Now(), tile, math.Float64bits(mw)))
	})
	for _, st := range script {
		if !st.late {
			st := st
			k.At(st.at, func() { c.SetTarget(st.tile, st.mw) })
		}
	}
	c.Start()
	for _, st := range script {
		if st.late {
			k.Run(st.at)
			c.SetTarget(st.tile, st.mw)
		}
	}
	k.Run(roundsEnd)
	resp := make([]string, 0, len(c.ResponseSamples()))
	for _, r := range c.ResponseSamples() {
		resp = append(resp, fmt.Sprint(r))
	}
	return append(out, "responses "+strings.Join(resp, " "))
}

// TestRoundsGolden pins every allocation and response sample of each
// controller under a fixed change script, on 1, 4 and 13 tiles. The
// golden was generated before the centralized schemes shared one round
// engine and must never need -update.
func TestRoundsGolden(t *testing.T) {
	var got []string
	for _, n := range []int{1, 4, 13} {
		script := roundScript(n, roundLength(n))
		for _, name := range []string{"C-RR", "BC-C", "PT", "TS", "Static"} {
			got = append(got, scriptedRun(name, n, script)...)
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(roundsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(roundsGolden)
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
	bad := 0
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			if bad++; bad <= 5 {
				t.Errorf("line %d differs:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d lines differ (%d got, %d in the golden)", bad, len(got), len(want))
	}
}
