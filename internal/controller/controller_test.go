package controller

import (
	"math"
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// testRig builds a kernel, network, and n managed tiles (indices 1..n on a
// mesh big enough to hold them plus a controller at tile 0).
func testRig(n int) (*sim.Kernel, *noc.Network, []TileSpec) {
	k := &sim.Kernel{}
	d := 2
	for d*d < n+1 {
		d++
	}
	net := noc.New(k, mesh.Square(d, false), noc.DefaultConfig())
	specs := make([]TileSpec, n)
	for i := range specs {
		specs[i] = TileSpec{Tile: i + 1, PMaxMW: 100, PMinMW: 10}
	}
	return k, net, specs
}

// allocator reads a controller's current allocation per tile.
type allocator interface{ AllocationMW(tile int) float64 }

func sumAlloc(c allocator, specs []TileSpec) float64 {
	var t float64
	for _, s := range specs {
		t += c.AllocationMW(s.Tile)
	}
	return t
}

// shares runs proportionalShares into fresh buffers.
func shares(specs []TileSpec, targets []float64, budget float64) []float64 {
	out := make([]float64, len(specs))
	proportionalShares(out, make([]bool, len(specs)), specs, targets, budget)
	return out
}

func TestProportionalSharesBasic(t *testing.T) {
	specs := []TileSpec{{Tile: 0, PMaxMW: 100}, {Tile: 1, PMaxMW: 100}}
	got := shares(specs, []float64{60, 30}, 90)
	if math.Abs(got[0]-60) > 1e-9 || math.Abs(got[1]-30) > 1e-9 {
		t.Fatalf("shares = %v", got)
	}
}

func TestProportionalSharesScalesDown(t *testing.T) {
	specs := []TileSpec{{Tile: 0, PMaxMW: 100}, {Tile: 1, PMaxMW: 100}}
	got := shares(specs, []float64{80, 40}, 60)
	if math.Abs(got[0]-40) > 1e-9 || math.Abs(got[1]-20) > 1e-9 {
		t.Fatalf("shares = %v", got)
	}
}

func TestProportionalSharesWaterFilling(t *testing.T) {
	// A capped tile's overflow is re-spread over the rest.
	specs := []TileSpec{{Tile: 0, PMaxMW: 30}, {Tile: 1, PMaxMW: 200}}
	got := shares(specs, []float64{100, 100}, 120)
	if math.Abs(got[0]-30) > 1e-9 {
		t.Fatalf("capped share = %v, want 30", got[0])
	}
	if math.Abs(got[1]-90) > 1e-9 {
		t.Fatalf("respread share = %v, want 90", got[1])
	}
}

func TestProportionalSharesAllInactive(t *testing.T) {
	specs := []TileSpec{{Tile: 0, PMaxMW: 30}}
	got := shares(specs, []float64{0}, 100)
	if got[0] != 0 {
		t.Fatalf("inactive share = %v", got[0])
	}
}

func TestBCCAllocatesProportionallyAfterRound(t *testing.T) {
	k, net, specs := testRig(4)
	c := NewBCC(k, net, specs, 100, 0)
	c.Start()
	c.SetTarget(1, 60)
	c.SetTarget(2, 30)
	k.Run(1 << 22)
	a1, a2 := c.AllocationMW(1), c.AllocationMW(2)
	if a1 <= a2 || a2 <= 0 {
		t.Fatalf("allocations %v/%v not proportional", a1, a2)
	}
	if total := sumAlloc(c, specs); total > 100+1e-9 {
		t.Fatalf("budget exceeded: %v", total)
	}
	if c.LastResponseCycles() == 0 {
		t.Fatal("response time not recorded")
	}
}

func TestBCCResponseScalesWithN(t *testing.T) {
	// BC-C is O(N): doubling tiles roughly doubles the response time.
	resp := func(n int) float64 {
		k, net, specs := testRig(n)
		c := NewBCC(k, net, specs, 1000, 0)
		c.Start()
		c.SetTarget(1, 50)
		k.Run(1 << 22)
		return float64(c.LastResponseCycles())
	}
	r6, r12 := resp(6), resp(12)
	if ratio := r12 / r6; ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("BC-C response ratio for 2x tiles = %.2f, want about 2", ratio)
	}
}

func TestBCCResponseMicrosecondBand(t *testing.T) {
	// Table I: BC-C response 3.8-8.0 us at N=13.
	k, net, specs := testRig(13)
	c := NewBCC(k, net, specs, 1000, 0)
	c.Start()
	c.SetTarget(1, 50)
	k.Run(1 << 22)
	us := sim.CyclesToMicros(c.LastResponseCycles())
	if us < 2 || us > 12 {
		t.Fatalf("BC-C response %.2f us at N=13, want a few us", us)
	}
}

func TestBCCRerunCoalescesMidRoundChanges(t *testing.T) {
	k, net, specs := testRig(4)
	c := NewBCC(k, net, specs, 100, 0)
	c.Start()
	c.SetTarget(1, 60)
	// Mid-round second change: must still end with both targets served.
	k.Run(100)
	c.SetTarget(2, 60)
	k.Run(1 << 22)
	if c.AllocationMW(2) <= 0 {
		t.Fatalf("second change lost: alloc=%v", c.AllocationMW(2))
	}
}

func TestCRRGreedyGrantsUnderCap(t *testing.T) {
	k, net, specs := testRig(4)
	// Budget fits one full Pmax grant, a partial greedy grant, and two
	// Pmin floors: floors 4x10 = 40, then greedily +90 and +10.
	c := NewCRR(k, net, specs, 140, 0)
	c.Start()
	for i := 1; i <= 4; i++ {
		c.SetTarget(i, 100)
	}
	k.Run(1 << 16)
	maxCount, minCount, midCount := 0, 0, 0
	for _, s := range specs {
		switch a := c.AllocationMW(s.Tile); {
		case a == 100:
			maxCount++
		case a == 10:
			minCount++
		case a > 10 && a < 100:
			midCount++
		default:
			t.Fatalf("C-RR allocation %v out of range", a)
		}
	}
	if maxCount != 1 || minCount != 2 || midCount != 1 {
		t.Fatalf("grants: %d max, %d min, %d partial; want 1/2/1", maxCount, minCount, midCount)
	}
	if total := sumAlloc(c, specs); total > 140+1e-9 {
		t.Fatalf("cap exceeded: %v", total)
	}
}

func TestCRRRotationMovesGrant(t *testing.T) {
	k, net, specs := testRig(3)
	c := NewCRR(k, net, specs, 120, 0)
	c.Start()
	for i := 1; i <= 3; i++ {
		c.SetTarget(i, 100)
	}
	k.Run(1 << 14)
	granted := func() int {
		for _, s := range specs {
			if c.AllocationMW(s.Tile) == 100 {
				return s.Tile
			}
		}
		return -1
	}
	first := granted()
	if first == -1 {
		t.Fatal("no tile granted Pmax")
	}
	// After a few rotation periods the grant must have moved.
	moved := false
	for i := 0; i < 5 && !moved; i++ {
		k.Run(k.Now() + 10000 + 8000)
		if granted() != first {
			moved = true
		}
	}
	if !moved {
		t.Fatal("round-robin grant never rotated")
	}
}

func TestTokenSmartConvergesGreedy(t *testing.T) {
	k, net, specs := testRig(4)
	c := NewTokenSmart(k, net, specs, 100, TSConfig{})
	c.Start()
	c.SetTarget(1, 50)
	c.SetTarget(2, 25)
	k.Run(1 << 18)
	a1, a2 := c.AllocationMW(1), c.AllocationMW(2)
	if math.Abs(a1-50) > 2 || math.Abs(a2-25) > 2 {
		t.Fatalf("TS allocations %v/%v, want about 50/25", a1, a2)
	}
	if total := sumAlloc(c, specs); total > 100+1e-9 {
		t.Fatalf("budget exceeded: %v", total)
	}
	if c.LastResponseCycles() == 0 {
		t.Fatal("TS response not recorded")
	}
}

func TestTokenSmartReleasesOnDeactivation(t *testing.T) {
	k, net, specs := testRig(3)
	c := NewTokenSmart(k, net, specs, 90, TSConfig{})
	c.Start()
	c.SetTarget(1, 90)
	k.Run(1 << 18)
	before := c.AllocationMW(1)
	c.SetTarget(1, 0)
	c.SetTarget(2, 90)
	k.Run(1 << 20)
	if c.AllocationMW(1) != 0 {
		t.Fatalf("deactivated tile kept %v mW", c.AllocationMW(1))
	}
	if c.AllocationMW(2) < before-2 {
		t.Fatalf("tokens not transferred: %v", c.AllocationMW(2))
	}
}

func TestTokenSmartFairModeOnStarvation(t *testing.T) {
	k, net, specs := testRig(3)
	c := NewTokenSmart(k, net, specs, 90, TSConfig{})
	c.Start()
	// Tile 1 grabs everything; then tiles 2 and 3 demand more than
	// remains, starving them into fair mode.
	c.SetTarget(1, 90)
	k.Run(1 << 18)
	c.SetTarget(2, 90)
	c.SetTarget(3, 90)
	sawFair := false
	for i := 0; i < 64 && !sawFair; i++ {
		k.Run(k.Now() + 2000)
		if c.FairMode() {
			sawFair = true
		}
	}
	if !sawFair {
		t.Fatal("starvation never triggered fair mode")
	}
}

func TestTokenSmartResponseScalesWithN(t *testing.T) {
	resp := func(n int) float64 {
		k, net, specs := testRig(n)
		c := NewTokenSmart(k, net, specs, 1000, TSConfig{})
		c.Start()
		k.Run(1 << 16) // let the pool circulate
		c.SetTarget(1, 100)
		k.Run(1 << 22)
		return float64(c.LastResponseCycles())
	}
	r6, r12 := resp(6), resp(12)
	if ratio := r12 / r6; ratio < 1.4 {
		t.Fatalf("TS response ratio %.2f for 2x tiles, want near-linear growth", ratio)
	}
}

func TestPriceTheoryAllocatesAtClearing(t *testing.T) {
	k, net, specs := testRig(9)
	// Scarce budget (120 < 150 demand) so proportional favoring is visible.
	c := NewPriceTheory(k, net, specs, 120, 0)
	c.Start()
	c.SetTarget(1, 100)
	c.SetTarget(5, 50)
	k.Run(1 << 22)
	a1, a5 := c.AllocationMW(1), c.AllocationMW(5)
	if a1 <= 0 || a5 <= 0 {
		t.Fatalf("PT allocations %v/%v", a1, a5)
	}
	if a1 <= a5 {
		t.Fatalf("PT did not favor larger bid: %v vs %v", a1, a5)
	}
	if total := sumAlloc(c, specs); total > 120+1e-9 {
		t.Fatalf("budget exceeded: %v", total)
	}
	if c.LastResponseCycles() == 0 {
		t.Fatal("PT response not recorded")
	}
	if c.NumClusters() != 3 {
		t.Fatalf("clusters = %d, want 3 for 9 tiles", c.NumClusters())
	}
}

func TestPriceTheorySlowerThanBCC(t *testing.T) {
	// PT's software-scale constants make it slower than the hardware
	// centralized controller at small N (Table I context).
	n := 13
	k1, net1, specs1 := testRig(n)
	bcc := NewBCC(k1, net1, specs1, 1000, 0)
	bcc.Start()
	bcc.SetTarget(1, 50)
	k1.Run(1 << 22)

	k2, net2, specs2 := testRig(n)
	pt := NewPriceTheory(k2, net2, specs2, 1000, 0)
	pt.Start()
	pt.SetTarget(1, 50)
	k2.Run(1 << 22)

	if pt.LastResponseCycles() <= bcc.LastResponseCycles() {
		t.Fatalf("PT (%d) should respond slower than BC-C (%d) at N=13",
			pt.LastResponseCycles(), bcc.LastResponseCycles())
	}
}

func TestStaticProportionalSplitAndZeroResponse(t *testing.T) {
	k, _, specs := testRig(4)
	c := NewStatic(k, specs, 200)
	c.Start()
	// Equal PMax across the rig: the proportional split is equal here.
	for _, s := range specs {
		if got := c.AllocationMW(s.Tile); math.Abs(got-50) > 1e-9 {
			t.Fatalf("static share %v, want 50", got)
		}
	}
	c.SetTarget(1, 100)
	k.Run(1 << 16)
	if c.AllocationMW(1) != 50 {
		t.Fatal("static allocation changed on activity")
	}
	if c.LastResponseCycles() != 0 {
		t.Fatal("static response should be 0")
	}
}

func TestStaticProportionalFavorsBigTiles(t *testing.T) {
	k := &sim.Kernel{}
	specs := []TileSpec{{Tile: 0, PMaxMW: 20, PMinMW: 1}, {Tile: 1, PMaxMW: 180, PMinMW: 1}}
	c := NewStatic(k, specs, 100)
	c.Start()
	if got := c.AllocationMW(0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("small tile got %v, want 10", got)
	}
	if got := c.AllocationMW(1); math.Abs(got-90) > 1e-9 {
		t.Fatalf("big tile got %v, want 90", got)
	}
}

func TestBaseValidation(t *testing.T) {
	k := &sim.Kernel{}
	for _, tc := range []struct {
		name  string
		specs []TileSpec
		mw    float64
	}{
		{"no tiles", nil, 100},
		{"bad budget", []TileSpec{{Tile: 0, PMaxMW: 10}}, 0},
		{"bad range", []TileSpec{{Tile: 0, PMaxMW: 10, PMinMW: 20}}, 100},
		{"dup tiles", []TileSpec{{Tile: 0, PMaxMW: 10}, {Tile: 0, PMaxMW: 10}}, 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			NewStatic(k, tc.specs, tc.mw)
		}()
	}
}

func TestOnAllocationObserver(t *testing.T) {
	k, net, specs := testRig(3)
	c := NewBCC(k, net, specs, 100, 0)
	events := map[int]float64{}
	c.OnAllocation(func(tile int, mw float64) { events[tile] = mw })
	c.Start()
	c.SetTarget(1, 50)
	k.Run(1 << 22)
	if events[1] <= 0 {
		t.Fatalf("observer not notified: %v", events)
	}
}

// TestTokenSmartHopsAllocateNothing: each hop of the circulating pool is
// a typed kernel event, not a closure, so once the ring is running its
// revolutions allocate nothing.
func TestTokenSmartHopsAllocateNothing(t *testing.T) {
	k, net, specs := testRig(8)
	c := NewTokenSmart(k, net, specs, 400, TSConfig{})
	c.Start()
	c.SetTarget(1, 60)
	c.SetTarget(5, 80)
	k.Run(1 << 16)
	const span = 1 << 16 // ~400 hops
	if allocs := testing.AllocsPerRun(10, func() { k.Run(k.Now() + span) }); allocs != 0 {
		t.Fatalf("%.1f allocations per %d cycles of token-ring hops, want 0", allocs, span)
	}
}

// TestControllerRoundsAllocateNothing: C-RR's and BC-C's rounds and PT's
// clearings are typed kernel events over buffers the controllers own, so
// once warm a round allocates nothing.
func TestControllerRoundsAllocateNothing(t *testing.T) {
	const span = 1 << 17
	for _, tc := range []struct {
		name string
		step func() func() // warms the controller up, returns one measured step
	}{
		{"C-RR rotation rounds", func() func() {
			k, net, specs := testRig(8)
			c := NewCRR(k, net, specs, 400, 0)
			c.Start()
			for _, s := range specs {
				c.SetTarget(s.Tile, 90)
			}
			k.Run(span)
			return func() { k.Run(k.Now() + span) }
		}},
		{"BC-C change rounds", func() func() {
			k, net, specs := testRig(8)
			c := NewBCC(k, net, specs, 400, 0)
			c.responses = make([]sim.Cycles, 0, 64)
			c.Start()
			mw := 10.0
			return func() {
				mw = 110 - mw
				c.SetTarget(1, mw)
				k.Run(k.Now() + 1<<14)
			}
		}},
		{"PT clearings", func() func() {
			k, net, specs := testRig(9)
			c := NewPriceTheory(k, net, specs, 400, 0)
			c.Start()
			c.SetTarget(1, 60)
			c.SetTarget(5, 80)
			k.Run(span)
			return func() { k.Run(k.Now() + span) }
		}},
	} {
		if allocs := testing.AllocsPerRun(10, tc.step()); allocs != 0 {
			t.Errorf("%s: %.1f allocations per step, want 0", tc.name, allocs)
		}
	}
}
