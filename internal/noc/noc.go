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

// CoinMsg is the payload of the three coin-exchange message kinds, stored
// inline in the Packet so the PM hot path never boxes a payload into an
// interface. The fields mirror the few-dozen-bit hardware message: coin
// state (Has, Max), a coin movement (Delta), protocol flags, and the
// exchange sequence number used to pair replies with requests.
type CoinMsg struct {
	Has   int64  // sender's coin count (status)
	Max   int64  // sender's max additional coins it can absorb (status)
	Delta int64  // coins moved, positive toward the receiver (update)
	Seq   uint64 // exchange sequence number
	Reply bool   // status sent in response to a request
	Nack  bool   // status declines the exchange (locked/busy)
	Ack   bool   // update acknowledges a received update
}

// Packet is a single-flit NoC message. PM messages are a few dozen bits
// (two 7-bit coin fields plus headers) and fit one flit.
type Packet struct {
	ID       uint64
	Plane    Plane
	Kind     Kind
	Src, Dst int
	// Coin carries the payload of coin-exchange kinds inline; Payload is the
	// escape hatch for every other message class.
	Coin      CoinMsg
	Payload   interface{}
	Injected  sim.Cycles // time Send was called
	Departed  sim.Cycles // time the packet won injection arbitration
	Delivered sim.Cycles // time the destination handler ran
	Hops      int
	// Dup marks a fault-injected duplicate delivery of an earlier packet.
	// Receivers that keep in-flight accounting must not double-count it;
	// protocol state machines still process it (that is the fault).
	Dup bool
	// pooled marks packets owned by the network's free list (SendCoin,
	// SendData and injected duplicates); deliver returns them to the pool
	// after the handler runs, so handlers must not retain them.
	pooled bool
}

// Latency returns the injection-to-delivery latency in cycles.
func (p *Packet) Latency() sim.Cycles { return p.Delivered - p.Injected }

// Handler consumes a delivered packet at its destination tile.
type Handler func(*Packet)

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

// MeanLatency returns the average delivery latency in cycles.
func (s *Stats) MeanLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Delivered)
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

// Network is the simulated NoC. Create with New, register per-tile handlers,
// then Send packets; deliveries arrive as kernel events.
type Network struct {
	kernel *sim.Kernel
	mesh   mesh.Mesh
	cfg    Config

	// coords[tile] is the tile's grid position, computed once so the route
	// walk in Send never divides.
	coords []mesh.Coord
	// planes holds each plane's tables, allocated on the first SetHandler or
	// Send that uses the plane: the exchange emulator only ever touches the
	// PM plane and pays for no other.
	planes [NumPlanes]planeTables

	nextID uint64
	stats  Stats
	faults *fault.Injector
	// deadPorts lists the link-table index (tile*NumDirections+dir) of
	// every port leading across a failed link, the same index in every
	// plane's table; deadFree is Send's scratch copy of those ports' free
	// cycles. Both stay empty on a fabric with no failed link.
	deadPorts []int
	deadFree  []sim.Cycles

	// Deliveries travel the kernel as typed (opDeliver, dst, slot) events:
	// slots holds each in-flight packet under a small integer index, so the
	// event itself is pointer-free and no per-packet closure or interface
	// boxing exists anywhere on the send path.
	opDeliver sim.OpCode
	slots     []*Packet
	freeSlots []int32
	// pool recycles packets created by SendCoin, refilled a slab at a time.
	pool []*Packet
}

// planeTables is one plane's link, port and handler state.
type planeTables struct {
	// links[from*NumDirections+dir] is the first cycle at which the directed
	// link out of tile `from` through port `dir` is free. One flit per cycle
	// per plane; a flat slice because every send touches it.
	links []sim.Cycles
	// inject[tile] is the injection port's next free cycle: the per-tile
	// round-robin arbiter serializes sources within a tile.
	inject []sim.Cycles
	// eject[tile] serializes deliveries into a tile.
	eject    []sim.Cycles
	handlers []Handler
}

// poolBatch is how many packets one pool refill allocates (as a single
// slab): the exchange workload keeps a few hundred packets in flight at
// peak, so warming the pool costs a handful of allocations, not one per
// packet.
const poolBatch = 64

// New builds a network over the given mesh using kernel for timing.
func New(k *sim.Kernel, m mesh.Mesh, cfg Config) *Network {
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 1
	}
	n := &Network{kernel: k, mesh: m, cfg: cfg, coords: make([]mesh.Coord, m.N())}
	for i := range n.coords {
		n.coords[i] = m.Coord(i)
	}
	n.opDeliver = k.RegisterOp(func(_ int32, x uint64) {
		p := n.slots[x]
		n.slots[x] = nil
		n.freeSlots = append(n.freeSlots, int32(x))
		n.deliver(p)
	})
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
		pt.handlers = make([]Handler, tiles)
	}
	return pt
}

// schedDeliver parks p in the slot table and schedules its delivery event.
func (n *Network) schedDeliver(t sim.Cycles, p *Packet) {
	var slot int32
	if k := len(n.freeSlots) - 1; k >= 0 {
		slot = n.freeSlots[k]
		n.freeSlots = n.freeSlots[:k]
		n.slots[slot] = p
	} else {
		n.slots = append(n.slots, p)
		slot = int32(len(n.slots) - 1)
	}
	n.kernel.AtOp(t, n.opDeliver, int32(p.Dst), uint64(slot))
}

// Mesh returns the topology the network routes over.
func (n *Network) Mesh() mesh.Mesh { return n.mesh }

// Stats returns a snapshot of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// SetHandler registers the delivery callback for (tile, plane). Passing nil
// drops packets silently, which models a tile with that service disabled.
func (n *Network) SetHandler(tile int, plane Plane, h Handler) {
	n.plane(plane).handlers[tile] = h
}

// AttachFaults connects a fault injector; every subsequent Send consults it.
// Attach before any traffic flows so the fault schedule is reproducible.
func (n *Network) AttachFaults(in *fault.Injector) {
	n.faults = in
	in.OnLinkFail(n.failLink)
}

// failLink records the ports that lead across the failed link a-b, both
// ways. On a 2-wide or 2-high torus two ports of a tile reach the same
// neighbor; both are marked, so the check does not depend on which one
// the route takes. A link failed twice lists its ports twice, which only
// repeats a comparison in Send.
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

// Faults returns the attached injector, or nil on a healthy fabric.
func (n *Network) Faults() *fault.Injector { return n.faults }

// Send injects a packet. The packet's Src, Dst, Plane, and Kind must be set;
// the network assigns ID and timing fields. Delivery happens via the
// destination handler after routing latency, including any contention.
//
// The return value reports whether the packet will be delivered: false means
// an injected fault discarded it in the fabric. It exists for conservation
// accounting only — a real tile cannot observe an in-fabric drop, so protocol
// logic must recover via timeouts, never by branching on this result. A
// duplicate injected by a fault is a pooled copy of p: handlers must not
// retain it.
func (n *Network) Send(p *Packet) bool {
	if p.Src == p.Dst {
		panic("noc: packet addressed to its own tile")
	}
	if p.Plane < 0 || p.Plane >= NumPlanes {
		panic(fmt.Sprintf("noc: invalid plane %d", p.Plane))
	}
	n.nextID++
	p.ID = n.nextID
	p.Injected = n.kernel.Now()
	n.stats.Sent++
	n.stats.PerPlaneSent[p.Plane]++
	if p.Kind >= 0 && p.Kind < numKinds {
		n.stats.PerKindSent[p.Kind]++
	}

	pt := n.plane(p.Plane)
	// Injection arbitration: the port accepts one packet per cycle.
	depart := p.Injected + n.cfg.RouterLatency
	if free := pt.inject[p.Src]; free > depart {
		n.stats.ContentionCyc += uint64(free - depart)
		depart = free
	}
	pt.inject[p.Src] = depart + 1
	p.Departed = depart

	// Reserve each link along the XY route in order, X first, then Y — the
	// route of mesh.NextHopXY, walked from the endpoints' coordinates with
	// each axis's direction resolved once. Because reservations are made at
	// send time in event order, two packets contending for a link serialize
	// deterministically. Doomed packets still reserve links: they occupy
	// the fabric up to wherever they die. A reservation strictly advances
	// a link's free cycle, so the walk crossed a failed link exactly when
	// it moved a dead port's: two loads per dead port and packet, none per
	// hop, and nothing at all on a fabric with no failed link.
	for i, l := range n.deadPorts {
		n.deadFree[i] = pt.links[l]
	}
	t := depart
	s, d := n.coords[p.Src], n.coords[p.Dst]
	li := p.Src * mesh.NumDirections
	if s.X != d.X {
		hops, fwd := n.axisHops(s.X, d.X, n.mesh.W)
		dir := mesh.West
		if fwd {
			dir = mesh.East
		}
		li, t = n.walk(pt.links, li, s.X, hops, fwd, dir, n.mesh.W, mesh.NumDirections, t)
		p.Hops += hops
	}
	if s.Y != d.Y {
		hops, fwd := n.axisHops(s.Y, d.Y, n.mesh.H)
		// On a 2-high torus both Y ports reach the same tile and the port
		// scan picks North, as in mesh.NextHopXY.
		dir := mesh.North
		if fwd && !(n.mesh.Torus && n.mesh.H == 2) {
			dir = mesh.South
		}
		_, t = n.walk(pt.links, li, s.Y, hops, fwd, dir, n.mesh.H, n.mesh.W*mesh.NumDirections, t)
		p.Hops += hops
	}

	var v fault.Verdict
	if n.faults != nil {
		crossed := false
		for i, l := range n.deadPorts {
			crossed = crossed || pt.links[l] != n.deadFree[i]
		}
		v = n.faults.PacketVerdict(int(p.Plane), p.Src, p.Dst, crossed)
	}
	if v.Drop {
		n.stats.Dropped++
		n.stats.PerPlaneDropped[p.Plane]++
		return false
	}
	if v.ExtraDelay > 0 {
		n.stats.Delayed++
		t += v.ExtraDelay
	}

	// Ejection port serialization at the destination.
	if free := pt.eject[p.Dst]; free > t {
		n.stats.ContentionCyc += uint64(free - t)
		t = free
	}
	pt.eject[p.Dst] = t + 1

	n.schedDeliver(t, p)

	if v.Dup {
		// The duplicate trails the original through the ejection port with
		// the same payload; receivers see the message twice. It is a pooled
		// copy, recycled after its delivery like any SendCoin packet.
		n.stats.Duplicated++
		dup := n.getPooled()
		*dup = *p
		dup.Dup, dup.pooled = true, true
		td := t + 1
		if free := pt.eject[p.Dst]; free > td {
			td = free
		}
		pt.eject[p.Dst] = td + 1
		n.schedDeliver(td, dup)
	}
	return true
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
// through port dir. li is the link-table base (tile*NumDirections) of the
// starting tile, pos its coordinate on the axis, and stride the link-table
// distance between axis neighbors; a torus wrap moves the base by
// length*stride. It returns the base of the tile the walk ends on and the
// cycle the packet clears the last link.
func (n *Network) walk(links []sim.Cycles, li, pos, hops int, fwd bool, dir mesh.Direction, length, stride int, t sim.Cycles) (int, sim.Cycles) {
	wrap := length * stride
	for ; hops > 0; hops-- {
		l := li + int(dir)
		if free := links[l]; free > t {
			n.stats.ContentionCyc += uint64(free - t)
			t = free
		}
		links[l] = t + 1
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

// SendCoin injects a coin-exchange packet drawn from the network's free
// list; the packet is recycled automatically once the destination handler
// returns (or immediately if a fault drops it), so the per-packet allocation
// of Send disappears from the exchange hot path. The return value matches
// Send's: false means an injected fault discarded the packet.
func (n *Network) SendCoin(plane Plane, kind Kind, src, dst int, msg CoinMsg) bool {
	p := n.getPooled()
	p.Plane, p.Kind, p.Src, p.Dst, p.Coin = plane, kind, src, dst, msg
	ok := n.Send(p)
	if !ok {
		n.pool = append(n.pool, p)
	}
	return ok
}

// SendData injects a pooled packet with an interface payload — the same
// recycling discipline as SendCoin for non-coin traffic like DMA flits, whose
// per-flit packets would otherwise dominate the SoC runner's allocations.
// Handlers must not retain the packet (the payload may be).
func (n *Network) SendData(plane Plane, kind Kind, src, dst int, payload interface{}) bool {
	p := n.getPooled()
	p.Plane, p.Kind, p.Src, p.Dst, p.Payload = plane, kind, src, dst, payload
	ok := n.Send(p)
	if !ok {
		n.pool = append(n.pool, p)
	}
	return ok
}

// getPooled returns a zeroed pooled packet, refilling the free list by slab
// when it runs dry.
func (n *Network) getPooled() *Packet {
	var p *Packet
	if k := len(n.pool) - 1; k >= 0 {
		p = n.pool[k]
		n.pool[k] = nil
		n.pool = n.pool[:k]
		*p = Packet{}
	} else {
		batch := make([]Packet, poolBatch)
		p = &batch[0]
		for i := range batch[1:] {
			n.pool = append(n.pool, &batch[1+i])
		}
	}
	p.pooled = true
	return p
}

func (n *Network) deliver(p *Packet) {
	p.Delivered = n.kernel.Now()
	n.stats.Delivered++
	n.stats.TotalHops += uint64(p.Hops)
	n.stats.TotalLatency += uint64(p.Latency())
	if p.Latency() > n.stats.MaxLatency {
		n.stats.MaxLatency = p.Latency()
	}
	if h := n.planes[p.Plane].handlers[p.Dst]; h != nil {
		h(p)
	}
	if p.pooled {
		n.pool = append(n.pool, p)
	}
}

// UnicastLatencyLowerBound returns the zero-contention latency between two
// tiles: boundary crossing plus hop traversal. Useful for response-time
// models and test oracles.
func (n *Network) UnicastLatencyLowerBound(src, dst int) sim.Cycles {
	return n.cfg.RouterLatency + sim.Cycles(n.mesh.HopDistance(src, dst))*n.cfg.HopLatency
}
