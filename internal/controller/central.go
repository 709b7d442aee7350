package controller

import (
	"blitzcoin/internal/noc"
	"blitzcoin/internal/sim"
)

// Firmware timing of the centralized controllers.
const (
	// centralProcCycles is the controller's firmware cost per tile (poll
	// handling plus state computation): 240 cycles (0.3 us at 800 MHz)
	// lands the N=13 response in the paper's measured bands, 3.8-8.0 us
	// for BC-C and 3.7-6.4 us for C-RR.
	centralProcCycles sim.Cycles = 240
	// rotationCycles is C-RR's fairness rotation period: 40000 cycles
	// (50 us).
	rotationCycles sim.Cycles = 40000
)

// Central is the centralized controller behind both baselines of
// Sec. V-C. An on-chip controller polls every managed tile in turn over
// the NoC, computes the allocation, then pushes each tile's new setting in
// turn, so the response time scales as O(N). The schemes differ only in
// the allocation rule:
//
//   - BC-C (BlitzCoin-Centralized) applies BlitzCoin's proportional
//     shares. Each tile keeps its own oscillator for decentralized
//     frequency actuation, but control and state determination are
//     centralized.
//   - C-RR (Centralized-Round-Robin), a simplified version of the
//     centralized controller of Mantovani et al. [42], grants greedily in
//     round-robin order under the global cap, and rotates the order
//     periodically for fairness. Allocation is therefore discrete (max or
//     min), which is what limits C-RR's throughput relative to the
//     fine-grained schemes (Sec. VI-A).
type Central struct {
	base
	roundRobin bool // C-RR's greedy rotating grants, else proportional shares

	// The round's schedule, fixed at construction because it depends only
	// on the mesh: update i lands land[i] cycles after the round starts,
	// and the round ends length cycles after it starts.
	land   []sim.Cycles
	length sim.Cycles

	// grants is the allocation the updates push. stale marks it out of
	// date with the targets or the rotation cursor; the next update to
	// land recomputes it.
	grants []float64
	capped []bool
	stale  bool

	cursor  int  // C-RR's round-robin start position
	running bool // a round is in flight
	rerun   bool // a change arrived mid-round; run again when it ends
	started bool

	// Typed ops: an update lands (x = spec index), the round ends (x = 1
	// when an activity change started it), C-RR's rotation fires.
	opLand, opEnd, opRotate sim.OpCode
}

// NewBCC builds BC-C with its controller on mesh tile ctrlTile (the CPU
// tile in the evaluated SoCs).
func NewBCC(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, ctrlTile int) *Central {
	return newCentral("BC-C", false, k, net, specs, budgetMW, ctrlTile)
}

// NewCRR builds C-RR with its controller on mesh tile ctrlTile.
func NewCRR(k *sim.Kernel, net *noc.Network, specs []TileSpec, budgetMW float64, ctrlTile int) *Central {
	return newCentral("C-RR", true, k, net, specs, budgetMW, ctrlTile)
}

func newCentral(name string, roundRobin bool, k *sim.Kernel, net *noc.Network,
	specs []TileSpec, budgetMW float64, ctrlTile int) *Central {

	c := &Central{
		base:       newBase(name, k, specs, budgetMW),
		roundRobin: roundRobin,
		land:       make([]sim.Cycles, len(specs)),
		grants:     make([]float64, len(specs)),
		capped:     make([]bool, len(specs)),
	}
	// Sequential polling: a round trip to each tile plus processing.
	var poll sim.Cycles
	for _, s := range specs {
		poll += 2*net.UnicastLatencyLowerBound(ctrlTile, s.Tile) + centralProcCycles
	}
	// One processing quantum computes the allocation; updates then issue
	// at four per quantum, each landing one message latency after its slot.
	send := poll + centralProcCycles
	for i, s := range specs {
		c.land[i] = send + net.UnicastLatencyLowerBound(ctrlTile, s.Tile)
		send += centralProcCycles / 4
	}
	c.length = send
	c.opLand = k.RegisterOp(func(_ int32, i uint64) { c.setAlloc(int(i), c.grant(int(i))) })
	c.opEnd = k.RegisterOp(func(_ int32, fromChange uint64) { c.endRound(fromChange == 1) })
	c.opRotate = k.RegisterOp(func(int32, uint64) { c.rotate() })
	return c
}

// Start begins C-RR's periodic fairness rotation; BC-C is purely reactive
// to activity changes.
func (c *Central) Start() {
	if c.started || !c.roundRobin {
		return
	}
	c.started = true
	c.kernel.ScheduleOp(rotationCycles, c.opRotate, 0, 0)
}

// SetTarget records the activity change and starts a round, or asks the
// round in flight to run again when it ends.
func (c *Central) SetTarget(tile int, mw float64) {
	c.targets[c.mustIndex(tile)] = mw
	c.stale = true
	c.markChange()
	if c.running {
		c.rerun = true
		return
	}
	c.startRound(true)
}

// rotate advances C-RR's round-robin cursor and starts a round unless one
// is in flight. Rotations are routine, not activity-triggered, so their
// rounds do not reset the response-time clock.
func (c *Central) rotate() {
	c.cursor = (c.cursor + 1) % len(c.specs)
	c.stale = true
	if !c.running {
		c.startRound(false)
	}
	c.kernel.ScheduleOp(rotationCycles, c.opRotate, 0, 0)
}

// startRound schedules the round's update landings and its end. Only
// rounds started by an activity change are timed as a response.
func (c *Central) startRound(fromChange bool) {
	c.running = true
	for i, at := range c.land {
		c.kernel.ScheduleOp(at, c.opLand, 0, uint64(i))
	}
	var x uint64
	if fromChange {
		x = 1
	}
	c.kernel.ScheduleOp(c.length, c.opEnd, 0, x)
}

func (c *Central) endRound(fromChange bool) {
	if fromChange {
		c.markResponded()
	}
	c.running = false
	if c.rerun {
		c.rerun = false
		c.startRound(true)
	}
}

// grant returns spec i's setting as its update lands, so a change that
// arrived since the round started is already in it.
func (c *Central) grant(i int) float64 {
	if c.stale {
		if c.roundRobin {
			c.roundRobinGrants()
		} else {
			proportionalShares(c.grants, c.capped, c.specs, c.targets, c.budget)
		}
		c.stale = false
	}
	return c.grants[i]
}

// roundRobinGrants computes C-RR's greedy round-robin allocation (Table I
// lists C-RR's allocation as "greedy"): the budget first covers every
// active tile's Pmin floor; then, walking round-robin from the rotating
// cursor, each active tile greedily takes as much of the remaining budget
// as it can use, up to its Pmax. Early tiles in the rotation run at or
// near maximum (V, F) while late ones stay at minimum — the discrete,
// rotation-granularity allocation whose throughput cost Sec. VI-A
// quantifies.
func (c *Central) roundRobinGrants() {
	remaining := c.budget
	for i, t := range c.targets {
		c.grants[i] = 0
		if t > 0 {
			c.grants[i] = c.specs[i].PMinMW
			remaining -= c.specs[i].PMinMW
		}
	}
	for k := 0; k < len(c.specs); k++ {
		i := (c.cursor + k) % len(c.specs)
		if c.targets[i] <= 0 || remaining <= 0 {
			continue
		}
		step := c.specs[i].PMaxMW - c.specs[i].PMinMW
		if step > remaining {
			step = remaining
		}
		c.grants[i] += step
		remaining -= step
	}
}
