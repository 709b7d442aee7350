// Package coin implements the BlitzCoin coin-exchange algorithm (Sec. III).
//
// Each tile holds an integer number of power units ("coins", has) and a
// target (max) proportional to its maximum power. Tiles repeatedly perform
// local exchanges that equalize the has/max ratio between participants while
// conserving the total coin count, so the fixed SoC-wide budget diffuses to
// the allocation target. The package provides:
//
//   - the pure exchange arithmetic (PairSplit for the 1-way technique of
//     Algorithm 2, GroupSplit for the 4-way technique of Algorithm 1);
//   - a cycle-driven behavioral emulator over the simulated NoC, with the
//     paper's three optimizations: dynamic timing (exponential back-off),
//     wrap-around neighbors, and random pairing (Sec. III-D);
//   - error metrics and convergence detection (Sec. III-E).
package coin

// roundDiv returns a/b rounded to the nearest integer (half away from
// zero). b must be positive. It works for negative a, which occurs for the
// transient negative coin counts discussed in Sec. IV-A.
func roundDiv(a, b int64) int64 {
	if b <= 0 {
		panic("coin: roundDiv requires positive divisor")
	}
	if a >= 0 {
		return (2*a + b) / (2 * b)
	}
	return -((-2*a + b) / (2 * b))
}

// PairSplit computes the fair re-division of coins between two tiles with
// coin counts hasI, hasJ and targets maxI, maxJ, such that both end at the
// same has/max ratio up to the 1-coin quantization. The sum is conserved
// exactly. Tiles with max 0 (inactive) relinquish all coins to the partner;
// if both are inactive, nothing moves.
func PairSplit(hasI, maxI, hasJ, maxJ int64) (newI, newJ int64) {
	if maxI < 0 || maxJ < 0 {
		panic("coin: negative max")
	}
	total := hasI + hasJ
	switch {
	case maxI == 0 && maxJ == 0:
		return hasI, hasJ
	case maxI == 0:
		return 0, total
	case maxJ == 0:
		return total, 0
	}
	newI = roundDiv(total*maxI, maxI+maxJ)
	newJ = total - newI
	// Only move coins when the exchange strictly reduces the pair's
	// deviation from the ideal split. Without this rule, two tiles whose
	// ideal shares have a .5 fraction (e.g. 8 and 9 coins on equal maxes)
	// trade the remainder coin forever — churn the hardware avoids because
	// an exchange that cannot improve the ratio match is a no-op. The
	// comparison is integer-exact, scaled by summax.
	summax := maxI + maxJ
	before := abs64(hasI*summax-total*maxI) + abs64(hasJ*summax-total*maxJ)
	after := abs64(newI*summax-total*maxI) + abs64(newJ*summax-total*maxJ)
	if after >= before {
		return hasI, hasJ
	}
	return newI, newJ
}

// floorDiv returns floor(a/b) for positive b and any a.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// GroupSplit computes the 4-way fair allocation among a center tile and its
// neighbors (Algorithm 1): the group's coins are apportioned in proportion
// to max using the largest-remainder method, so every tile lands within one
// coin of its ideal share and the total is preserved exactly. has and max
// are parallel slices with the center at index 0. Tiles with max 0 receive
// 0 (their coins flow to the others); if all maxes are 0, the input
// allocation is returned unchanged.
func GroupSplit(has, max []int64) []int64 {
	out := make([]int64, len(has))
	groupSplit(has, max, out, make([]int64, len(has)))
	return out
}

// groupSplit is GroupSplit writing the allocation into out, with rems as
// remainder scratch; both must be as long as has. The emulator's 4-way
// exchange passes fixed scratch arrays, so its steady state allocates
// nothing.
func groupSplit(has, max, out, rems []int64) {
	if len(has) != len(max) || len(has) == 0 {
		panic("coin: GroupSplit slice mismatch")
	}
	var total, summax int64
	for i := range has {
		if max[i] < 0 {
			panic("coin: negative max")
		}
		total += has[i]
		summax += max[i]
	}
	if summax == 0 {
		copy(out, has)
		return
	}
	// Floor shares, then hand the leftover coins to the tiles with the
	// largest fractional remainders (ties to the lower index, matching a
	// deterministic hardware priority encoder).
	var assigned int64
	for i := range has {
		if max[i] == 0 {
			out[i], rems[i] = 0, 0
			continue
		}
		prod := total * max[i]
		out[i] = floorDiv(prod, summax)
		rems[i] = prod - out[i]*summax
		assigned += out[i]
	}
	for left := total - assigned; left > 0; left-- {
		best := -1
		for i := range rems {
			if max[i] == 0 {
				continue
			}
			if best < 0 || rems[i] > rems[best] {
				best = i
			}
		}
		out[best]++
		rems[best] = -1
	}
	// As in PairSplit, only rebalance when it strictly reduces the group's
	// total deviation from the ideal shares (integer-exact, scaled by
	// summax); otherwise report no movement to avoid remainder churn.
	var before, after int64
	for i := range has {
		before += abs64(has[i]*summax - total*max[i])
		after += abs64(out[i]*summax - total*max[i])
	}
	if after >= before {
		copy(out, has)
	}
}

// Target returns the ideal (real-valued) coin count of a tile under the
// global convergence ratio alpha = sum(has)/sum(max): target_i =
// alpha*max_i. With summax == 0 every target is 0.
func Target(maxI, sumHas, sumMax int64) float64 {
	if sumMax == 0 {
		return 0
	}
	return float64(sumHas) * float64(maxI) / float64(sumMax)
}

// TileError returns E_i = |has_i - alpha*max_i| (Sec. III-E).
func TileError(hasI, maxI, sumHas, sumMax int64) float64 {
	d := float64(hasI) - Target(maxI, sumHas, sumMax)
	if d < 0 {
		return -d
	}
	return d
}

// GlobalError returns E = (1/N) * sum_i |has_i - alpha*max_i|, the paper's
// convergence metric, along with the worst per-tile error.
func GlobalError(has, max []int64) (mean, worst float64) {
	if len(has) != len(max) {
		panic("coin: GlobalError slice mismatch")
	}
	if len(has) == 0 {
		return 0, 0
	}
	var sumHas, sumMax int64
	for i := range has {
		sumHas += has[i]
		sumMax += max[i]
	}
	var total float64
	for i := range has {
		e := TileError(has[i], max[i], sumHas, sumMax)
		total += e
		if e > worst {
			worst = e
		}
	}
	return total / float64(len(has)), worst
}
