package coin

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 2, 4}, {5, 2, 3}, {4, 2, 2}, {-7, 2, -4}, {-5, 2, -3},
		{0, 5, 0}, {9, 3, 3}, {10, 4, 3}, {11, 4, 3}, {-10, 4, -3},
	}
	for _, c := range cases {
		if got := roundDiv(c.a, c.b); got != c.want {
			t.Fatalf("roundDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRoundDivPanicsOnBadDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("roundDiv(1,0) did not panic")
		}
	}()
	roundDiv(1, 0)
}

func TestPairSplitFig2Example(t *testing.T) {
	// Fig. 2 illustrates one pass from a center tile with has:max of 3:8.
	// With a partner at 5:4 (ratio 1.25 vs 0.375), total 8 coins over
	// total max 12 gives targets 5.33 and 2.67.
	newI, newJ := PairSplit(3, 8, 5, 4)
	if newI+newJ != 8 {
		t.Fatalf("sum not conserved: %d+%d", newI, newJ)
	}
	if newI != 5 || newJ != 3 {
		t.Fatalf("split = %d,%d want 5,3", newI, newJ)
	}
}

func TestPairSplitInactivePartner(t *testing.T) {
	// A tile whose execution ended has max=0 and must relinquish all coins
	// (Sec. III-A).
	newI, newJ := PairSplit(4, 0, 2, 8)
	if newI != 0 || newJ != 6 {
		t.Fatalf("inactive i: got %d,%d want 0,6", newI, newJ)
	}
	newI, newJ = PairSplit(4, 8, 2, 0)
	if newI != 6 || newJ != 0 {
		t.Fatalf("inactive j: got %d,%d want 6,0", newI, newJ)
	}
	newI, newJ = PairSplit(4, 0, 2, 0)
	if newI != 4 || newJ != 2 {
		t.Fatalf("both inactive: got %d,%d want unchanged 4,2", newI, newJ)
	}
}

func TestPairSplitConservationProperty(t *testing.T) {
	f := func(hi, hj int16, mi, mj uint8) bool {
		newI, newJ := PairSplit(int64(hi), int64(mi), int64(hj), int64(mj))
		return newI+newJ == int64(hi)+int64(hj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPairSplitRatioEqualization(t *testing.T) {
	// After a split of non-negative coins between two active tiles, the
	// ratios differ by at most the 1-coin quantization.
	f := func(hi, hj uint16, mi, mj uint8) bool {
		if mi == 0 || mj == 0 {
			return true
		}
		newI, newJ := PairSplit(int64(hi), int64(mi), int64(hj), int64(mj))
		ri := float64(newI) / float64(mi)
		rj := float64(newJ) / float64(mj)
		// The worst quantization error on each side is 0.5/max, scaled up
		// by the ideal-vs-rounded coin: allow one coin of slack per side.
		tol := 1.0/float64(mi) + 1.0/float64(mj)
		return math.Abs(ri-rj) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPairSplitBetweenness(t *testing.T) {
	// Sec. III-E: the final ratio beta' lies between the initial ratios.
	f := func(hi, hj uint16, mi, mj uint8) bool {
		if mi == 0 || mj == 0 {
			return true
		}
		bi := float64(hi) / float64(mi)
		bj := float64(hj) / float64(mj)
		lo, hi2 := math.Min(bi, bj), math.Max(bi, bj)
		newI, _ := PairSplit(int64(hi), int64(mi), int64(hj), int64(mj))
		bp := float64(newI) / float64(mi)
		slack := 1.0 / float64(mi) // one-coin rounding
		return bp >= lo-slack && bp <= hi2+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPairSplitErrorMonotonicityProperty(t *testing.T) {
	// The analytical core of Sec. III-E: with alpha held at the global
	// ratio of the pair, the summed error E_i + E_j never increases by
	// more than the quantization slack (exactly non-increasing in the
	// continuous case; rounding can add at most one coin of error).
	f := func(hi, hj uint16, mi, mj uint8) bool {
		sumHas := int64(hi) + int64(hj)
		sumMax := int64(mi) + int64(mj)
		before := TileError(int64(hi), int64(mi), sumHas, sumMax) +
			TileError(int64(hj), int64(mj), sumHas, sumMax)
		newI, newJ := PairSplit(int64(hi), int64(mi), int64(hj), int64(mj))
		after := TileError(newI, int64(mi), sumHas, sumMax) +
			TileError(newJ, int64(mj), sumHas, sumMax)
		return after <= before+1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestPairSplitNegativeTransient(t *testing.T) {
	// Transient negative counts (Sec. IV-A sign bit) must not break the
	// arithmetic or conservation.
	newI, newJ := PairSplit(-3, 4, 9, 4)
	if newI+newJ != 6 {
		t.Fatalf("negative transient: sum %d, want 6", newI+newJ)
	}
	if newI != 3 || newJ != 3 {
		t.Fatalf("split = %d,%d want 3,3", newI, newJ)
	}
}

// groupSplitOf is groupSplit into a fresh allocation, with fresh scratch.
func groupSplitOf(has, max []int64) []int64 {
	out := make([]int64, len(has))
	groupSplit(has, max, out, make([]int64, len(has)))
	return out
}

func TestGroupSplitConservesAndEqualizes(t *testing.T) {
	has := []int64{3, 5, 0, 8, 4} // center first
	max := []int64{8, 4, 4, 4, 4}
	out := groupSplitOf(has, max)
	var sum int64
	for _, v := range out {
		sum += v
	}
	if sum != 20 {
		t.Fatalf("sum = %d, want 20", sum)
	}
	// alpha = 20/24; targets: center 6.67, neighbors 3.33.
	for i, v := range out {
		target := 20.0 * float64(max[i]) / 24.0
		if math.Abs(float64(v)-target) > 1.0 {
			t.Fatalf("tile %d got %d, target %.2f", i, v, target)
		}
	}
}

func TestGroupSplitAllInactive(t *testing.T) {
	has := []int64{3, 1, 2}
	out := groupSplitOf(has, []int64{0, 0, 0})
	for i := range has {
		if out[i] != has[i] {
			t.Fatalf("all-inactive split changed allocation: %v", out)
		}
	}
}

func TestGroupSplitConservationProperty(t *testing.T) {
	f := func(h0, h1, h2, h3, h4 int16, m0, m1, m2, m3, m4 uint8) bool {
		has := []int64{int64(h0), int64(h1), int64(h2), int64(h3), int64(h4)}
		max := []int64{int64(m0), int64(m1), int64(m2), int64(m3), int64(m4)}
		var want int64
		for _, h := range has {
			want += h
		}
		out := groupSplitOf(has, max)
		var got int64
		for _, v := range out {
			got += v
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestGroupSplitPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched GroupSplit did not panic")
		}
	}()
	groupSplitOf([]int64{1}, []int64{1, 2})
}

func TestGlobalError(t *testing.T) {
	// Perfectly proportional allocation has zero error.
	mean, worst := GlobalError([]int64{2, 4, 6}, []int64{1, 2, 3})
	if mean != 0 || worst != 0 {
		t.Fatalf("proportional: mean=%v worst=%v", mean, worst)
	}
	// All coins on one of two equal tiles: alpha=1, targets 4,4 -> errors 4,4.
	mean, worst = GlobalError([]int64{8, 0}, []int64{4, 4})
	if mean != 4 || worst != 4 {
		t.Fatalf("skewed: mean=%v worst=%v", mean, worst)
	}
	// Empty is zero.
	if m, w := GlobalError(nil, nil); m != 0 || w != 0 {
		t.Fatalf("empty: %v %v", m, w)
	}
}

func TestTargetZeroSumMax(t *testing.T) {
	if Target(5, 100, 0) != 0 {
		t.Fatal("target with sumMax=0 should be 0")
	}
}
