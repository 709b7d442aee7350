package controller

import (
	"math"

	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// PriceTheory is a simplified implementation of the hierarchical
// price-theory-based power manager of Muthukaruppan et al. [81]
// (Sec. VI-D): tiles are grouped into clusters, each with a cluster manager;
// a periodic market clearing gathers per-cluster demand bids, a central
// market assigns cluster budgets in proportion to the bids, and cluster
// managers then distribute their budgets to tiles. The two-level hierarchy
// gives sub-linear scaling, but every clearing still traverses a
// centralized market, and the paper's comparison (Fig. 21) shows it several
// times slower than BlitzCoin even after hardware-implementation scaling.
type PriceTheory struct {
	base

	// size is the tiles per cluster: consecutive specs form a cluster,
	// and its first tile hosts the cluster manager.
	size int
	// latency is one full market clearing, fixed at construction because
	// it depends only on the mesh.
	latency sim.Cycles
	// Buffers every clearing reuses: per-cluster demand bids, per-tile
	// shares, and proportionalShares' scratch.
	demands []float64
	shares  []float64
	capped  []bool

	pendingResponse bool
	started         bool
	// opClear starts a clearing and opApply lands its allocation.
	opClear, opApply sim.OpCode
}

// ptProcCycles is the per-message software handling cost at the managers
// and market: 400 cycles (0.5 us), calibrated to the hardware-scaled
// response times the paper derives from [81]. Clusters hold ceil(sqrt(N))
// tiles, the balanced two-level hierarchy, and clearings start every two
// clearing latencies, so the market runs back to back with slack.
const ptProcCycles sim.Cycles = 400

// NewPriceTheory builds the hierarchical controller with its central market
// on mesh tile marketTile (the controller CPU tile).
func NewPriceTheory(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, marketTile int) *PriceTheory {
	n := len(specs)
	size := int(math.Ceil(math.Sqrt(float64(n))))
	c := &PriceTheory{
		base:    newBase("PT", k, specs, budgetMW),
		size:    size,
		demands: make([]float64, (n+size-1)/size),
		shares:  make([]float64, n),
		capped:  make([]bool, n),
	}
	c.latency = c.clearingLatency(net, marketTile)
	c.opClear = k.RegisterOp(func(int32, uint64) {
		c.kernel.ScheduleOp(c.latency, c.opApply, 0, 0)
		c.kernel.ScheduleOp(2*c.latency, c.opClear, 0, 0)
	})
	c.opApply = k.RegisterOp(func(int32, uint64) { c.apply() })
	return c
}

// cluster returns the specs range [lo, hi) of cluster ci.
func (c *PriceTheory) cluster(ci int) (lo, hi int) {
	lo = ci * c.size
	return lo, min(lo+c.size, len(c.specs))
}

// clearingLatency models one full market clearing:
//
//  1. gather: cluster managers poll their tiles sequentially, clusters in
//     parallel (max over clusters);
//  2. market: the central market collects each cluster bid sequentially and
//     computes prices;
//  3. scatter: managers distribute allocations sequentially within the
//     cluster, clusters in parallel.
//
// With ~sqrt(N) clusters of ~sqrt(N) tiles this is O(sqrt(N)) like
// BlitzCoin, but with software-scale constants and a serialized market.
func (c *PriceTheory) clearingLatency(net *noc.Network, marketTile int) sim.Cycles {
	var gather, market sim.Cycles
	for ci := range c.demands {
		lo, hi := c.cluster(ci)
		mgr := c.specs[lo].Tile
		var t sim.Cycles
		for i := lo; i < hi; i++ {
			t += 2*net.UnicastLatencyLowerBound(mgr, c.specs[i].Tile) + ptProcCycles
		}
		gather = max(gather, t)
		market += 2*net.UnicastLatencyLowerBound(marketTile, mgr) + ptProcCycles
	}
	scatter := gather // symmetric distribution pass
	return gather + market + scatter
}

// Start launches the periodic market.
func (c *PriceTheory) Start() {
	if c.started {
		return
	}
	c.started = true
	c.kernel.ScheduleOp(1, c.opClear, 0, 0)
}

// SetTarget registers a bid change; it takes effect at the next clearing.
func (c *PriceTheory) SetTarget(tile int, mw float64) {
	c.targets[c.mustIndex(tile)] = mw
	c.markChange()
	c.pendingResponse = true
}

// apply lands a clearing: the two-level proportional allocation, which
// completes the response to any bid change made before it.
func (c *PriceTheory) apply() {
	var total float64
	for ci := range c.demands {
		lo, hi := c.cluster(ci)
		c.demands[ci] = 0
		for i := lo; i < hi; i++ {
			c.demands[ci] += c.targets[i]
		}
		total += c.demands[ci]
	}
	for ci, d := range c.demands {
		lo, hi := c.cluster(ci)
		if total == 0 {
			clear(c.shares[lo:hi])
		} else {
			proportionalShares(c.shares[lo:hi], c.capped[lo:hi], c.specs[lo:hi], c.targets[lo:hi], c.budget*d/total)
		}
		for i := lo; i < hi; i++ {
			c.setAlloc(i, c.shares[i])
		}
	}
	if c.pendingResponse {
		c.markResponded()
		c.pendingResponse = false
	}
}

// NumClusters returns the hierarchy width, for tests.
func (c *PriceTheory) NumClusters() int { return len(c.demands) }
