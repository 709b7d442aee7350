// Package fault is the deterministic fault-injection subsystem of the
// robustness extension. BlitzCoin's central claim (Sec. III, Sec. VI) is
// that decentralization removes the single point of failure of centralized
// power managers; this package supplies the perturbations that claim must be
// tested against, in the spirit of fault-aware DPM co-simulation: message
// loss, duplication and delay on the PM plane, fail-stop links, fail-stop
// and fail-slow tiles, and stuck coin counters.
//
// Every fault is seeded and scheduled, so a (config, seed) pair reproduces a
// bit-identical fault schedule across runs — the same "same seed, same run"
// convention the Monte Carlo experiments rest on. The injector itself is
// passive: the NoC consults it per packet (PacketVerdict), and the timed
// faults (kills, stuck counters, slow-downs, link failures) are armed as
// discrete events on the simulation kernel, notifying whichever models
// registered interest.
package fault

import (
	"fmt"
	"sort"

	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

// TileFault schedules a per-tile fault activation.
type TileFault struct {
	Tile int
	At   sim.Cycles
}

// SlowFault schedules a fail-slow activation: from At on, the tile's
// exchange FSM runs Factor times slower (its intervals stretch by Factor).
type SlowFault struct {
	Tile   int
	At     sim.Cycles
	Factor float64 // > 1
}

// LinkFault schedules a fail-stop of the mesh link between two adjacent
// tiles. Both directions fail: a broken physical channel carries nothing
// either way. Packets routed across the link after At are dropped.
type LinkFault struct {
	A, B int
	At   sim.Cycles
}

// Config declares one run's fault model. The zero value injects nothing.
type Config struct {
	// Seed drives the per-packet random faults. Two runs with the same
	// Config (and the same traffic) see the same fault schedule.
	Seed uint64

	// Plane selects the NoC plane targeted by the random packet faults
	// below; PM traffic rides plane 5. Negative means "all planes".
	// The zero value targets plane 5 via DefaultPlane in withDefaults.
	Plane int

	// DropRate, DupRate and DelayRate are per-packet probabilities on the
	// target plane. Dropped packets vanish in the fabric; duplicated ones
	// deliver twice; delayed ones arrive up to DelayMax cycles late.
	DropRate  float64
	DupRate   float64
	DelayRate float64
	// DelayMax bounds the extra delivery delay; zero selects 64 cycles.
	DelayMax sim.Cycles

	// TileKills fail-stops tiles: from At on, the tile's PM logic is dead —
	// it initiates nothing and packets addressed to it vanish.
	TileKills []TileFault
	// StuckCounters freeze tiles' coin registers at their value at At:
	// subsequent updates are absorbed, silently leaking (or duplicating)
	// coins until the conservation audit repairs the pool.
	StuckCounters []TileFault
	// SlowTiles apply fail-slow factors to tiles' exchange cadence.
	SlowTiles []SlowFault
	// LinkFails fail-stops mesh links.
	LinkFails []LinkFault
}

// DefaultPlane is the PM plane (plane 5) targeted when Config.Plane is 0.
const DefaultPlane = 5

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.DupRate > 0 || c.DelayRate > 0 ||
		len(c.TileKills) > 0 || len(c.StuckCounters) > 0 ||
		len(c.SlowTiles) > 0 || len(c.LinkFails) > 0
}

// withDefaults normalizes the config and panics on invalid settings.
func (c Config) withDefaults() Config {
	if c.DropRate < 0 || c.DropRate > 1 || c.DupRate < 0 || c.DupRate > 1 ||
		c.DelayRate < 0 || c.DelayRate > 1 {
		panic(fmt.Sprintf("fault: rates must be probabilities: drop=%v dup=%v delay=%v",
			c.DropRate, c.DupRate, c.DelayRate))
	}
	if c.Plane == 0 {
		c.Plane = DefaultPlane
	}
	if c.DelayMax == 0 {
		c.DelayMax = 64
	}
	for _, s := range c.SlowTiles {
		if s.Factor <= 1 {
			panic(fmt.Sprintf("fault: fail-slow factor %v must be > 1", s.Factor))
		}
	}
	return c
}

// Stats counts the faults actually injected during a run.
type Stats struct {
	Drops     uint64 // random per-packet drops
	Dups      uint64
	Delays    uint64
	LinkDrops uint64 // packets lost on failed links
	DeadDrops uint64 // packets addressed to dead tiles
	Killed    int    // tiles fail-stopped so far
	Stuck     int    // counters frozen so far
	Slowed    int
	LinksDown int
}

// Verdict is the injector's ruling on one packet at send time.
type Verdict struct {
	// Drop discards the packet: it is charged injection but never delivers.
	Drop bool
	// Dup delivers the packet twice (the duplicate one cycle behind).
	Dup bool
	// ExtraDelay postpones delivery by the given number of cycles.
	ExtraDelay sim.Cycles
}

// Injector evaluates the fault model. Build with NewInjector, register any
// listeners, attach it to the NoC, then Arm it on the simulation kernel.
type Injector struct {
	cfg Config
	src *rng.Source

	deadTiles  map[int]bool
	stuckTiles map[int]bool
	slowTiles  map[int]float64
	deadLinks  map[[2]int]bool

	onKill     []func(tile int)
	onStuck    []func(tile int)
	onSlow     []func(tile int, factor float64)
	onLinkFail []func(a, b int)

	armed bool
	stats Stats
}

// NewInjector builds an injector for the given fault model.
func NewInjector(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:        cfg,
		src:        rng.New(cfg.Seed),
		deadTiles:  make(map[int]bool),
		stuckTiles: make(map[int]bool),
		slowTiles:  make(map[int]float64),
		deadLinks:  make(map[[2]int]bool),
	}
}

// Config returns the normalized fault model.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats { return in.stats }

// OnTileKill registers a callback for tile fail-stop activations. Multiple
// listeners (e.g. the coin emulator and the SoC runner) may register; they
// fire in registration order.
func (in *Injector) OnTileKill(fn func(tile int)) { in.onKill = append(in.onKill, fn) }

// OnStuckCounter registers a callback for coin-register freeze activations.
func (in *Injector) OnStuckCounter(fn func(tile int)) { in.onStuck = append(in.onStuck, fn) }

// OnFailSlow registers a callback for fail-slow activations.
func (in *Injector) OnFailSlow(fn func(tile int, factor float64)) {
	in.onSlow = append(in.onSlow, fn)
}

// OnLinkFail registers a callback for link fail-stop activations; it
// receives the link's two tiles, and both directions are down.
func (in *Injector) OnLinkFail(fn func(a, b int)) { in.onLinkFail = append(in.onLinkFail, fn) }

// Arm schedules every timed fault on the kernel. Call exactly once, after
// all listeners are registered and before the simulation runs.
func (in *Injector) Arm(k *sim.Kernel) {
	if in.armed {
		panic("fault: injector armed twice")
	}
	in.armed = true
	// Sort each schedule by (time, tile) so arming order — and therefore
	// same-cycle event order — is independent of config slice order.
	kills := append([]TileFault(nil), in.cfg.TileKills...)
	sort.Slice(kills, func(i, j int) bool {
		if kills[i].At != kills[j].At {
			return kills[i].At < kills[j].At
		}
		return kills[i].Tile < kills[j].Tile
	})
	for _, f := range kills {
		f := f
		k.At(f.At, func() { in.killTile(f.Tile) })
	}
	stuck := append([]TileFault(nil), in.cfg.StuckCounters...)
	sort.Slice(stuck, func(i, j int) bool {
		if stuck[i].At != stuck[j].At {
			return stuck[i].At < stuck[j].At
		}
		return stuck[i].Tile < stuck[j].Tile
	})
	for _, f := range stuck {
		f := f
		k.At(f.At, func() { in.stickCounter(f.Tile) })
	}
	slows := append([]SlowFault(nil), in.cfg.SlowTiles...)
	sort.Slice(slows, func(i, j int) bool {
		if slows[i].At != slows[j].At {
			return slows[i].At < slows[j].At
		}
		return slows[i].Tile < slows[j].Tile
	})
	for _, f := range slows {
		f := f
		k.At(f.At, func() { in.slowTile(f.Tile, f.Factor) })
	}
	links := append([]LinkFault(nil), in.cfg.LinkFails...)
	sort.Slice(links, func(i, j int) bool {
		if links[i].At != links[j].At {
			return links[i].At < links[j].At
		}
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	for _, f := range links {
		f := f
		k.At(f.At, func() { in.failLink(f.A, f.B) })
	}
}

func (in *Injector) killTile(tile int) {
	if in.deadTiles[tile] {
		return
	}
	in.deadTiles[tile] = true
	in.stats.Killed++
	for _, fn := range in.onKill {
		fn(tile)
	}
}

func (in *Injector) stickCounter(tile int) {
	if in.stuckTiles[tile] {
		return
	}
	in.stuckTiles[tile] = true
	in.stats.Stuck++
	for _, fn := range in.onStuck {
		fn(tile)
	}
}

func (in *Injector) slowTile(tile int, factor float64) {
	in.slowTiles[tile] = factor
	in.stats.Slowed++
	for _, fn := range in.onSlow {
		fn(tile, factor)
	}
}

func (in *Injector) failLink(a, b int) {
	in.deadLinks[[2]int{a, b}] = true
	in.deadLinks[[2]int{b, a}] = true
	in.stats.LinksDown++
	for _, fn := range in.onLinkFail {
		fn(a, b)
	}
}

// TileDead reports whether a tile has fail-stopped.
func (in *Injector) TileDead(tile int) bool { return in.deadTiles[tile] }

// LinkFailed reports whether the directed link a->b has fail-stopped.
func (in *Injector) LinkFailed(a, b int) bool { return in.deadLinks[[2]int{a, b}] }

// PacketVerdict rules on one packet about to enter the network.
// crossesDeadLink reports whether the packet's route crosses a failed
// link; the sender knows, since it walks the route (the NoC learns of
// failures through OnLinkFail). The ruling consumes random draws only for
// the rate faults on the targeted plane, so fault-free planes see no RNG
// churn and the schedule is reproducible.
func (in *Injector) PacketVerdict(plane, src, dst int, crossesDeadLink bool) Verdict {
	var v Verdict
	// Fail-stop tiles: a dead destination swallows everything sent to it.
	if in.deadTiles[dst] {
		in.stats.DeadDrops++
		v.Drop = true
		return v
	}
	// Fail-stop links: a packet whose XY route crosses a dead link is lost
	// in the fabric.
	if crossesDeadLink {
		in.stats.LinkDrops++
		v.Drop = true
		return v
	}
	if plane != in.cfg.Plane && in.cfg.Plane >= 0 {
		return v
	}
	if in.cfg.DropRate > 0 && in.src.Float64() < in.cfg.DropRate {
		in.stats.Drops++
		v.Drop = true
		return v
	}
	if in.cfg.DupRate > 0 && in.src.Float64() < in.cfg.DupRate {
		in.stats.Dups++
		v.Dup = true
	}
	if in.cfg.DelayRate > 0 && in.src.Float64() < in.cfg.DelayRate {
		in.stats.Delays++
		v.ExtraDelay = 1 + sim.Cycles(in.src.Int63n(int64(in.cfg.DelayMax)))
	}
	return v
}
