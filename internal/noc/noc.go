// Package noc models the multi-plane 2D-mesh network-on-chip that carries
// BlitzCoin's coin-exchange messages.
//
// The evaluated SoCs (Sec. IV-B) use a six-plane NoC: three planes for
// coherence, two for accelerator DMA, and plane 5 for memory-mapped register
// access and interrupts. The paper adds a new message type to plane 5 for
// coin-based power management, with a round-robin arbiter controlling access
// to the plane within each tile. The NoC runs at a fixed voltage and
// frequency (800 MHz) and guarantees one-cycle-per-hop throughput
// (Sec. IV-C).
//
// This model is packet-level and cycle-accurate in the sense that matters to
// the power-management experiments: XY (dimension-ordered) routing, one
// cycle per hop, per-link-per-plane serialization (one flit per cycle), and
// a per-tile injection arbiter on the PM plane. It is driven by the
// discrete-event kernel, so all latencies — including contention stalls —
// land on exact cycles.
package noc

import (
	"fmt"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/sim"
)

// Plane identifies one of the six NoC planes.
type Plane int

// The six planes of the ESP-style NoC. PlanePM is plane 5, which carries
// register accesses, interrupts, and the new coin-exchange message class.
const (
	PlaneCoherence0 Plane = iota
	PlaneCoherence1
	PlaneCoherence2
	PlaneDMA0
	PlaneDMA1
	PlanePM
	NumPlanes
)

// Kind classifies a packet's message type.
type Kind int

// Message kinds. The coin kinds implement Algorithms 1 and 2; RegAccess and
// Interrupt are the plane-5 messages PM traffic arbitrates against.
const (
	KindCoinRequest Kind = iota // 4-way: center asks a neighbor for status
	KindCoinStatus              // reply or unsolicited status: (has, max)
	KindCoinUpdate              // new coin count pushed to a neighbor
	KindRegAccess               // memory-mapped CSR read/write
	KindInterrupt
	KindOther
	numKinds
)

// String returns a short name for the message kind.
func (k Kind) String() string {
	switch k {
	case KindCoinRequest:
		return "coin-req"
	case KindCoinStatus:
		return "coin-status"
	case KindCoinUpdate:
		return "coin-update"
	case KindRegAccess:
		return "reg"
	case KindInterrupt:
		return "irq"
	case KindOther:
		return "other"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Stats aggregates network activity for one run.
type Stats struct {
	Sent          uint64
	Delivered     uint64
	TotalHops     uint64
	TotalLatency  uint64 // cycles, summed over delivered packets
	PerPlaneSent  [NumPlanes]uint64
	PerKindSent   [numKinds]uint64
	MaxLatency    sim.Cycles
	ContentionCyc uint64 // cycles spent waiting for busy links/ports

	// Fault-injection effects (zero on a healthy fabric).
	Dropped         uint64 // packets lost to any injected fault
	PerPlaneDropped [NumPlanes]uint64
	Duplicated      uint64 // extra deliveries injected by duplication faults
	Delayed         uint64 // deliveries postponed by delay faults
}

// Config sets the network's timing knobs.
type Config struct {
	// HopLatency is the per-hop traversal time. The fabricated SoC
	// guarantees one cycle per hop.
	HopLatency sim.Cycles
	// RouterLatency is an additional fixed cost paid once at injection
	// (the tile-to-NoC synchronizer crossing; Sec. IV-B notes each message
	// needs exactly two boundary crossings, folded into this constant).
	RouterLatency sim.Cycles
}

// DefaultConfig matches the fabricated SoC: 1 cycle/hop plus a 2-cycle
// injection cost for the voltage/frequency boundary crossings.
func DefaultConfig() Config {
	return Config{HopLatency: 1, RouterLatency: 2}
}

// Network is the simulated NoC. Create with New, then Route each message:
// the network reserves the fabric and rules on the message, and its sender
// keeps it and schedules its landing. Nothing is delivered by the network
// itself, so no per-message record, closure or kernel event exists here.
type Network struct {
	kernel *sim.Kernel
	mesh   mesh.Mesh
	cfg    Config

	// coords[tile] is the tile's grid position, computed once so the route
	// walk never divides.
	coords []mesh.Coord
	// planes holds each plane's tables, allocated on the first Route that
	// uses the plane: the exchange emulator only ever touches the PM plane
	// and pays for no other.
	planes [NumPlanes]planeTables

	stats  Stats
	faults *fault.Injector
	// deadPorts lists the link-table index (tile*NumDirections+dir) of
	// every port leading across a failed link, the same index in every
	// plane's table; deadFree is Route's scratch copy of those ports' free
	// cycles. Both stay empty on a fabric with no failed link.
	deadPorts []int
	deadFree  []sim.Cycles
}

// planeTables is one plane's link and port state.
type planeTables struct {
	// links[from*NumDirections+dir] is the first cycle at which the directed
	// link out of tile `from` through port `dir` is free. One flit per cycle
	// per plane; a flat slice because every send touches it.
	links []sim.Cycles
	// inject[tile] is the injection port's next free cycle: the per-tile
	// round-robin arbiter serializes sources within a tile.
	inject []sim.Cycles
	// eject[tile] serializes deliveries into a tile.
	eject []sim.Cycles
}

// New builds a network over the given mesh using kernel for timing.
func New(k *sim.Kernel, m mesh.Mesh, cfg Config) *Network {
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 1
	}
	n := &Network{kernel: k, mesh: m, cfg: cfg, coords: make([]mesh.Coord, m.N())}
	for i := range n.coords {
		n.coords[i] = m.Coord(i)
	}
	return n
}

// plane returns p's tables, allocating them on first use; the link and
// port tables share one slab.
func (n *Network) plane(p Plane) *planeTables {
	pt := &n.planes[p]
	if pt.links == nil {
		tiles := n.mesh.N()
		nl := tiles * mesh.NumDirections
		slab := make([]sim.Cycles, nl+2*tiles)
		pt.links = slab[:nl:nl]
		pt.inject = slab[nl : nl+tiles : nl+tiles]
		pt.eject = slab[nl+tiles:]
	}
	return pt
}

// Mesh returns the topology the network routes over.
func (n *Network) Mesh() mesh.Mesh { return n.mesh }

// Stats returns a snapshot of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// AttachFaults connects a fault injector; every subsequent Route consults
// it. Attach before any traffic flows so the fault schedule is
// reproducible.
func (n *Network) AttachFaults(in *fault.Injector) {
	n.faults = in
	in.OnLinkFail(n.failLink)
}

// failLink records the ports that lead across the failed link a-b, both
// ways. On a 2-wide or 2-high torus two ports of a tile reach the same
// neighbor; both are marked, so the check does not depend on which one
// the route takes. A link failed twice lists its ports twice, which only
// repeats a comparison in Route.
func (n *Network) failLink(a, b int) {
	for _, e := range [2][2]int{{a, b}, {b, a}} {
		for d := mesh.North; int(d) < mesh.NumDirections; d++ {
			if j, ok := n.mesh.Neighbor(e[0], d); ok && j == e[1] {
				n.deadPorts = append(n.deadPorts, e[0]*mesh.NumDirections+int(d))
			}
		}
	}
	n.deadFree = make([]sim.Cycles, len(n.deadPorts))
}

// Route sends a train of flits flits (at least one) from src to dst on
// plane, leaving src this cycle, for a sender that keeps its messages and
// schedules their landings itself; a lone message is a train of one. It
// reserves the injection port, every link of the XY route and the ejection
// port, takes the injector's verdict and adds the send-side Stats. It
// returns the cycle the first flit lands (flit i lands i cycles later),
// the cycle an injected duplicate lands after it (0 when there is none)
// and the route's hop count. ok false means the fabric loses the train;
// only the simulator's own accounting may branch on that, since a real
// tile cannot observe an in-fabric drop.
//
// A lone message's delivery side (Delivered, TotalHops, TotalLatency,
// MaxLatency) is its sender's to credit: it calls Arrive as the message,
// and then any duplicate, lands. A longer train's is credited here, and
// matches its flits' once the train has landed.
//
// The reservation is closed-form because every stage passes one flit per
// cycle. The flits leave the injection port one cycle apart, so flit i
// takes every link and the ejection port exactly i cycles after flit 0 and
// waits at each as long as flit 0 did; each is left free flits cycles
// after flit 0 took it, and injection waits add flits*w0 +
// flits*(flits-1)/2 for flit 0's wait w0. Stats grow by exactly what
// flits lone messages would add. Random faults strike only plane 5, where
// every sender routes lone messages, so a train is lost or delivered whole
// and only a lone message can be delayed or duplicated.
func (n *Network) Route(plane Plane, kind Kind, src, dst, flits int) (at, dupAt sim.Cycles, hops int, ok bool) {
	if src == dst {
		panic("noc: packet addressed to its own tile")
	}
	if plane < 0 || plane >= NumPlanes {
		panic(fmt.Sprintf("noc: invalid plane %d", plane))
	}
	k := uint64(flits)
	n.stats.Sent += k
	n.stats.PerPlaneSent[plane] += k
	if kind >= 0 && kind < numKinds {
		n.stats.PerKindSent[kind] += k
	}

	pt := n.plane(plane)
	// Injection arbitration: the port accepts one flit per cycle, so flit i
	// of a train departs i cycles after flit 0 and waits i cycles longer.
	now := n.kernel.Now()
	depart := now + n.cfg.RouterLatency
	if free := pt.inject[src]; free > depart {
		n.stats.ContentionCyc += k * (free - depart)
		depart = free
	}
	n.stats.ContentionCyc += k * (k - 1) / 2
	pt.inject[src] = depart + k

	// Reserve each link along the XY route in order, X first, then Y — the
	// route of mesh.NextHopXY, walked from the endpoints' coordinates with
	// each axis's direction resolved once. Because reservations are made at
	// send time in event order, two messages contending for a link
	// serialize deterministically. Doomed messages still reserve links:
	// they occupy the fabric up to wherever they die. A reservation
	// strictly advances a link's free cycle, so the walk crossed a failed
	// link exactly when it moved a dead port's: two loads per dead port and
	// message, none per hop, and nothing at all on a fabric with no failed
	// link.
	for i, l := range n.deadPorts {
		n.deadFree[i] = pt.links[l]
	}
	t := depart
	s, d := n.coords[src], n.coords[dst]
	li := src * mesh.NumDirections
	if s.X != d.X {
		h, fwd := n.axisHops(s.X, d.X, n.mesh.W)
		dir := mesh.West
		if fwd {
			dir = mesh.East
		}
		li, t = n.walk(pt.links, li, s.X, h, fwd, dir, n.mesh.W, mesh.NumDirections, t, k)
		hops = h
	}
	if s.Y != d.Y {
		h, fwd := n.axisHops(s.Y, d.Y, n.mesh.H)
		// On a 2-high torus both Y ports reach the same tile and the port
		// scan picks North, as in mesh.NextHopXY.
		dir := mesh.North
		if fwd && !(n.mesh.Torus && n.mesh.H == 2) {
			dir = mesh.South
		}
		_, t = n.walk(pt.links, li, s.Y, h, fwd, dir, n.mesh.H, n.mesh.W*mesh.NumDirections, t, k)
		hops += h
	}

	var v fault.Verdict
	if n.faults != nil {
		crossed := false
		for i, l := range n.deadPorts {
			crossed = crossed || pt.links[l] != n.deadFree[i]
		}
		v = n.faults.PacketVerdict(int(plane), src, dst, crossed)
	}
	if v.Drop {
		n.stats.Dropped += k
		n.stats.PerPlaneDropped[plane] += k
		return 0, 0, hops, false
	}
	if v.ExtraDelay > 0 {
		n.stats.Delayed++
		t += v.ExtraDelay
	}

	// Ejection port serialization at the destination.
	if free := pt.eject[dst]; free > t {
		n.stats.ContentionCyc += k * (free - t)
		t = free
	}
	pt.eject[dst] = t + k
	if v.Dup {
		// The duplicate trails the original through the ejection port.
		n.stats.Duplicated++
		dupAt = t + 1
		if free := pt.eject[dst]; free > dupAt {
			dupAt = free
		}
		pt.eject[dst] = dupAt + 1
	}
	if k > 1 {
		// Flit i's latency is flit 0's plus i.
		last := t + k - 1
		n.stats.Delivered += k
		n.stats.TotalHops += k * uint64(hops)
		n.stats.TotalLatency += k*(t-now) + k*(k-1)/2
		if lat := last - now; lat > n.stats.MaxLatency {
			n.stats.MaxLatency = lat
		}
	}
	return t, dupAt, hops, true
}

// Arrive credits the delivery-side Stats of a lone message landing now:
// Delivered, TotalHops, TotalLatency and MaxLatency. injected is the cycle
// it was routed and hops its route's hop count. A duplicate is credited
// when it lands too.
func (n *Network) Arrive(injected sim.Cycles, hops int) {
	lat := n.kernel.Now() - injected
	n.stats.Delivered++
	n.stats.TotalHops += uint64(hops)
	n.stats.TotalLatency += lat
	if lat > n.stats.MaxLatency {
		n.stats.MaxLatency = lat
	}
}

// axisHops resolves one axis of the XY route from coordinate a to b on an
// axis of the given length: the hop count and whether the hops step
// forward (+1). A torus takes the shorter way around, ties going forward.
func (n *Network) axisHops(a, b, length int) (hops int, fwd bool) {
	hops = b - a
	if !n.mesh.Torus {
		if hops < 0 {
			return -hops, false
		}
		return hops, true
	}
	if hops < 0 {
		hops += length
	}
	if hops <= length-hops {
		return hops, true
	}
	return length - hops, false
}

// walk reserves hops consecutive links along one axis, each leaving its tile
// through port dir, for flits flits in a row: each link stays busy flits
// cycles from the cycle the first takes it, and every flit waits there as
// long as the first. li is the link-table base (tile*NumDirections) of the
// starting tile, pos its coordinate on the axis, and stride the link-table
// distance between axis neighbors; a torus wrap moves the base by
// length*stride. It returns the base of the tile the walk ends on and the
// cycle the first flit clears the last link.
func (n *Network) walk(links []sim.Cycles, li, pos, hops int, fwd bool, dir mesh.Direction, length, stride int, t sim.Cycles, flits uint64) (int, sim.Cycles) {
	wrap := length * stride
	for ; hops > 0; hops-- {
		l := li + int(dir)
		if free := links[l]; free > t {
			n.stats.ContentionCyc += flits * (free - t)
			t = free
		}
		links[l] = t + flits
		t += n.cfg.HopLatency
		if fwd {
			li += stride
			if pos++; pos == length {
				pos, li = 0, li-wrap
			}
		} else {
			if pos == 0 {
				pos, li = length, li+wrap
			}
			pos--
			li -= stride
		}
	}
	return li, t
}

// UnicastLatencyLowerBound returns the zero-contention latency between two
// tiles: boundary crossing plus hop traversal. Useful for response-time
// models and test oracles.
func (n *Network) UnicastLatencyLowerBound(src, dst int) sim.Cycles {
	return n.cfg.RouterLatency + sim.Cycles(n.mesh.HopDistance(src, dst))*n.cfg.HopLatency
}
