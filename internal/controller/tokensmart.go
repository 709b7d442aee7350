package controller

import (
	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// TokenSmart is the ring-based decentralized token scheme of Shah et
// al. [43] (Sec. III-C). The pool of available power tokens is passed
// sequentially around a ring of tiles. In the default greedy mode, each tile
// the pool visits takes enough tokens to satisfy its own target. When a tile
// has been starved for a specified duration, the global policy switches to a
// fair mode that targets an equal token count in each active tile, then
// reverts. Although decentralized, the sequential token passing makes the
// convergence time scale with N, and the greedy/fair oscillation produces
// the long-tail outliers of Fig. 4.
type TokenSmart struct {
	base
	net *noc.Network

	tokenValue float64 // mW per token
	total      int64   // total tokens (budget / tokenValue)
	held       []int64
	pool       int64

	pos        int // ring position (index into specs)
	fair       bool
	fairLeft   int   // revolutions of fair mode remaining
	starve     []int // consecutive starved revolutions per tile
	movedInRev bool

	pendingResponse bool
	revCount        uint64 // completed revolutions
	eligibleRev     uint64 // first revolution allowed to complete a response
	visitProc       sim.Cycles
	started         bool
	// opHop moves the pool to the ring position in the event's x: one
	// typed op, so circulating the pool allocates nothing per hop.
	opHop sim.OpCode
}

// TSConfig parameterizes TokenSmart.
type TSConfig struct {
	// TotalTokens quantizes the budget; zero selects 256.
	TotalTokens int64
	// VisitProcCycles is the per-tile token-handling time; zero selects
	// 150 cycles, landing the N=13 response near the measured 2.9 us.
	VisitProcCycles sim.Cycles
}

// TokenSmart's greedy/fair switch: a tile starved for tsStarveRevolutions
// consecutive revolutions triggers fair mode, which lasts
// tsFairRevolutions revolutions.
const (
	tsStarveRevolutions = 2
	tsFairRevolutions   = 4
)

func (c *TSConfig) defaults() {
	if c.TotalTokens == 0 {
		c.TotalTokens = 256
	}
	if c.VisitProcCycles == 0 {
		c.VisitProcCycles = 150
	}
}

// NewTokenSmart builds the scheme over the managed tiles; the ring order is
// the order of specs (callers pass a snake order so consecutive ring tiles
// are mesh-adjacent).
func NewTokenSmart(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, cfg TSConfig) *TokenSmart {
	cfg.defaults()
	c := &TokenSmart{
		base:       newBase("TS", k, specs, budgetMW),
		net:        net,
		tokenValue: budgetMW / float64(cfg.TotalTokens),
		total:      cfg.TotalTokens,
		held:       make([]int64, len(specs)),
		pool:       cfg.TotalTokens,
		starve:     make([]int, len(specs)),
		visitProc:  cfg.VisitProcCycles,
	}
	c.opHop = k.RegisterOp(func(_ int32, next uint64) { c.hop(int(next)) })
	return c
}

// Start launches the circulating token pool.
func (c *TokenSmart) Start() {
	if c.started {
		return
	}
	c.started = true
	c.scheduleHop()
}

// SetTarget records a tile's new power target; the circulating pool will
// absorb the change over the following revolutions.
func (c *TokenSmart) SetTarget(tile int, mw float64) {
	c.targets[c.mustIndex(tile)] = mw
	c.markChange()
	c.pendingResponse = true
	// A response needs at least one full revolution to serve the change
	// and a further quiet revolution to confirm stability.
	c.eligibleRev = c.revCount + 2
}

// needTokens returns tile i's desired token count in the current mode.
func (c *TokenSmart) needTokens(i int) int64 {
	if c.targets[i] <= 0 {
		return 0
	}
	if c.fair {
		active := int64(0)
		for _, t := range c.targets {
			if t > 0 {
				active++
			}
		}
		return c.total / active
	}
	want := int64(c.targets[i]/c.tokenValue + 0.5)
	capTokens := int64(c.specs[i].PMaxMW / c.tokenValue)
	if want > capTokens {
		want = capTokens
	}
	return want
}

// visit applies the greedy/fair take-release rule at ring position pos.
func (c *TokenSmart) visit() {
	i := c.pos
	need := c.needTokens(i)
	switch {
	case c.held[i] > need:
		c.pool += c.held[i] - need
		c.held[i] = need
		c.movedInRev = true
	case c.held[i] < need:
		take := need - c.held[i]
		if take > c.pool {
			take = c.pool
		}
		if take > 0 {
			c.pool -= take
			c.held[i] += take
			c.movedInRev = true
		}
	}
	c.setAlloc(i, float64(c.held[i])*c.tokenValue)
}

// scheduleHop advances the pool to the next tile after the NoC hop latency
// plus the visit processing time.
func (c *TokenSmart) scheduleHop() {
	next := (c.pos + 1) % len(c.specs)
	hop := c.net.UnicastLatencyLowerBound(c.specs[c.pos].Tile, c.specs[next].Tile)
	c.kernel.ScheduleOp(hop+c.visitProc, c.opHop, 0, uint64(next))
}

// hop lands the pool on ring position next, visits that tile, closes the
// revolution at the ring's end, and sends the pool on.
func (c *TokenSmart) hop(next int) {
	c.pos = next
	c.visit()
	if c.pos == len(c.specs)-1 {
		c.endRevolution()
	}
	c.scheduleHop()
}

// endRevolution runs the once-per-revolution policy: starvation accounting,
// greedy/fair switching, and response-time completion detection.
func (c *TokenSmart) endRevolution() {
	anyStarved := false
	for i := range c.specs {
		if c.targets[i] > 0 && c.held[i] < c.needTokens(i) {
			c.starve[i]++
			if c.starve[i] >= tsStarveRevolutions {
				anyStarved = true
			}
		} else {
			c.starve[i] = 0
		}
	}
	switch {
	case c.fair:
		c.fairLeft--
		if c.fairLeft <= 0 {
			c.fair = false
			for i := range c.starve {
				c.starve[i] = 0
			}
		}
	case anyStarved:
		c.fair = true
		c.fairLeft = tsFairRevolutions
	}
	c.revCount++
	if c.pendingResponse && c.revCount >= c.eligibleRev && !c.movedInRev && !c.fair {
		c.markResponded()
		c.pendingResponse = false
	}
	c.movedInRev = false
}

// FairMode reports whether the global policy is currently in fair mode.
func (c *TokenSmart) FairMode() bool { return c.fair }
