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

// Packet is a single-flit NoC message. PM messages are a few dozen bits
// (two 7-bit coin fields plus headers) and fit one flit. The one exception
// is the delivery of a SendBurst train: it is the train's last flit and
// stands for all of them (Flits).
type Packet struct {
	ID       uint64
	Plane    Plane
	Kind     Kind
	Src, Dst int
	// Payload is the message's content, opaque to the network.
	Payload   interface{}
	Injected  sim.Cycles // time Send was called
	Delivered sim.Cycles // time the destination handler ran
	Hops      int
	// Flits is the number of flits the delivery stands for. The one
	// delivery of a SendBurst train carries the train's length; the flits
	// of a burst under a fault injector and duplicates of those carry one.
	// Send leaves the caller's value.
	Flits int
	// Dup marks a fault-injected duplicate delivery of an earlier packet.
	// Receivers that keep in-flight accounting must not double-count it;
	// protocol state machines still process it (that is the fault).
	Dup bool
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

	// Deliveries travel the kernel as typed (op, dst, slot) events, so the
	// event itself is pointer-free and no per-packet closure or interface
	// boxing exists anywhere on the send path. Packets the network owns
	// (SendBurst trains and flits, injected duplicates) live in pool, a
	// sim.Slots, addressed by slot number. A caller-owned packet passed to
	// Send borrows a slot number too, and owned maps that slot to it while
	// it is in flight. Handlers must not retain a network-owned packet: its
	// slot is reused once they return. Messages sent with Route stay with
	// their sender and take no slot.
	opDeliver, opOwned, opTrain sim.OpCode
	pool                        sim.Slots[Packet]
	owned                       []*Packet
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

// New builds a network over the given mesh using kernel for timing.
func New(k *sim.Kernel, m mesh.Mesh, cfg Config) *Network {
	if cfg.HopLatency == 0 {
		cfg.HopLatency = 1
	}
	n := &Network{kernel: k, mesh: m, cfg: cfg, coords: make([]mesh.Coord, m.N())}
	for i := range n.coords {
		n.coords[i] = m.Coord(i)
	}
	// Each op frees its slot after the handler returns: a handler that
	// sends must not be handed the packet it is reading.
	n.opDeliver = k.RegisterOp(func(_ int32, x uint64) {
		n.deliver(n.pool.At(int32(x)))
		n.pool.Free(int32(x))
	})
	n.opOwned = k.RegisterOp(func(_ int32, x uint64) {
		p := n.owned[x]
		n.owned[x] = nil
		n.deliver(p)
		n.pool.Free(int32(x))
	})
	n.opTrain = k.RegisterOp(func(_ int32, x uint64) {
		p := n.pool.At(int32(x))
		p.Delivered = n.kernel.Now()
		n.handle(p)
		n.pool.Free(int32(x))
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

// getPooled takes a slot and returns it with its packet, header filled
// in. The packet keeps its last occupant's other fields: each sender sets
// Payload, send sets the ID, timing and hops, and delivery sets Delivered,
// so only Dup, which no sender sets, is cleared here.
func (n *Network) getPooled(plane Plane, kind Kind, src, dst, flits int) (int32, *Packet) {
	s, p := n.pool.Take()
	p.Plane, p.Kind, p.Src, p.Dst, p.Flits, p.Dup = plane, kind, src, dst, flits, false
	return s, p
}

// Mesh returns the topology the network routes over.
func (n *Network) Mesh() mesh.Mesh { return n.mesh }

// Stats returns a snapshot of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// SetHandler registers the delivery callback for (tile, plane). Passing nil
// drops packets silently, which models a tile with that service disabled;
// a tile with no handler registered does the same.
func (n *Network) SetHandler(tile int, plane Plane, h Handler) {
	n.plane(plane).handlers[tile] = h
}

// AttachFaults connects a fault injector; every subsequent Send, Route
// and SendBurst consults it.
// Attach before any traffic flows so the fault schedule is reproducible.
func (n *Network) AttachFaults(in *fault.Injector) {
	n.faults = in
	in.OnLinkFail(n.failLink)
}

// failLink records the ports that lead across the failed link a-b, both
// ways. On a 2-wide or 2-high torus two ports of a tile reach the same
// neighbor; both are marked, so the check does not depend on which one
// the route takes. A link failed twice lists its ports twice, which only
// repeats a comparison in route.
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
// duplicate injected by a fault is a network-owned copy of p: handlers must
// not retain it.
func (n *Network) Send(p *Packet) bool {
	_, ok := n.send(p, -1, 1)
	return ok
}

// send injects p, the network-owned packet in slot or a caller-owned one
// when slot is -1, as the last flit of a train of flits flits leaving its
// source this cycle; a lone packet is a train of one. Trains longer than
// one are SendBurst's closed form, sent only on a fabric with no injector.
// It reports whether the packet will be delivered and the cycle its first
// flit lands.
func (n *Network) send(p *Packet, slot int32, flits uint64) (sim.Cycles, bool) {
	t, dupAt, hops, ok := n.route(p.Plane, p.Kind, p.Src, p.Dst, flits)
	p.ID, p.Injected, p.Hops = n.nextID, n.kernel.Now(), hops
	if !ok {
		if slot >= 0 {
			n.pool.Free(slot)
		}
		return 0, false
	}
	if flits > 1 {
		// A train is delivered once, as its last flit, and its
		// delivery-side counters are credited now: flit i's latency is
		// flit 0's plus i, as is its injection wait.
		last := t + flits - 1
		n.stats.ContentionCyc += flits * (flits - 1) / 2
		n.stats.Delivered += flits
		n.stats.TotalHops += flits * uint64(hops)
		n.stats.TotalLatency += flits*(t-p.Injected) + flits*(flits-1)/2
		if lat := last - p.Injected; lat > n.stats.MaxLatency {
			n.stats.MaxLatency = lat
		}
		n.kernel.AtOp(last, n.opTrain, int32(p.Dst), uint64(slot))
		return t, true
	}
	op := n.opDeliver
	if slot < 0 {
		slot, _ = n.pool.Take()
		op = n.opOwned
		for int(slot) >= len(n.owned) {
			n.owned = append(n.owned, nil)
		}
		n.owned[slot] = p
	}
	n.kernel.AtOp(t, op, int32(p.Dst), uint64(slot))
	if dupAt > 0 {
		// The duplicate carries the same payload; receivers see the
		// message twice. It is a network-owned copy, recycled after its
		// delivery like any pooled packet.
		ds, dup := n.pool.Take()
		*dup = *p
		dup.Dup = true
		n.kernel.AtOp(dupAt, n.opDeliver, int32(p.Dst), uint64(ds))
	}
	return t, true
}

// Route sends one single-flit message from src to dst on plane for a
// sender that keeps the message itself, as the coin emulator does: it
// takes a packet ID and makes every reservation, fault verdict and
// send-side Stats entry Send makes for a packet with this header, and
// schedules nothing. It returns the cycle the message lands, the cycle an
// injected duplicate lands after it (0 when there is none) and the route's
// hop count. ok false means an injected fault discarded the message; as
// with Send, only the simulator's own accounting may branch on that. The
// sender schedules each landing, the original's before the duplicate's,
// and calls Arrive as each one lands.
func (n *Network) Route(plane Plane, kind Kind, src, dst int) (at, dupAt sim.Cycles, hops int, ok bool) {
	return n.route(plane, kind, src, dst, 1)
}

// Arrive credits the delivery-side Stats of a message landing now:
// Delivered, TotalHops, TotalLatency and MaxLatency. injected is the cycle
// it was sent and hops its route's hop count. A routed message's duplicate
// is credited when it lands too, as Send's duplicates are.
func (n *Network) Arrive(injected sim.Cycles, hops int) {
	lat := n.kernel.Now() - injected
	n.stats.Delivered++
	n.stats.TotalHops += uint64(hops)
	n.stats.TotalLatency += lat
	if lat > n.stats.MaxLatency {
		n.stats.MaxLatency = lat
	}
}

// route reserves the fabric for a train of flits flits leaving src for dst
// on plane this cycle, takes their packet IDs and adds their send-side
// Stats; a lone message is a train of one. It returns the cycle the first
// flit lands, the cycle an injected duplicate lands (0 when there is none)
// and the route's hop count; ok is false when an injected fault dropped
// the message. Trains longer than one are routed only on a fabric with no
// injector, so only a lone message can be delayed or duplicated.
func (n *Network) route(plane Plane, kind Kind, src, dst int, flits uint64) (at, dupAt sim.Cycles, hops int, ok bool) {
	if src == dst {
		panic("noc: packet addressed to its own tile")
	}
	if plane < 0 || plane >= NumPlanes {
		panic(fmt.Sprintf("noc: invalid plane %d", plane))
	}
	n.nextID += flits
	n.stats.Sent += flits
	n.stats.PerPlaneSent[plane] += flits
	if kind >= 0 && kind < numKinds {
		n.stats.PerKindSent[kind] += flits
	}

	pt := n.plane(plane)
	// Injection arbitration: the port accepts one flit per cycle, so flit i
	// of a train departs i cycles after flit 0 and waits i cycles longer
	// (charged with the train's delivery by send).
	depart := n.kernel.Now() + n.cfg.RouterLatency
	if free := pt.inject[src]; free > depart {
		n.stats.ContentionCyc += flits * (free - depart)
		depart = free
	}
	pt.inject[src] = depart + flits

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
	s, d := n.coords[src], n.coords[dst]
	li := src * mesh.NumDirections
	if s.X != d.X {
		h, fwd := n.axisHops(s.X, d.X, n.mesh.W)
		dir := mesh.West
		if fwd {
			dir = mesh.East
		}
		li, t = n.walk(pt.links, li, s.X, h, fwd, dir, n.mesh.W, mesh.NumDirections, t, flits)
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
		_, t = n.walk(pt.links, li, s.Y, h, fwd, dir, n.mesh.H, n.mesh.W*mesh.NumDirections, t, flits)
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
		n.stats.Dropped++
		n.stats.PerPlaneDropped[plane]++
		return 0, 0, hops, false
	}
	if v.ExtraDelay > 0 {
		n.stats.Delayed++
		t += v.ExtraDelay
	}

	// Ejection port serialization at the destination.
	if free := pt.eject[dst]; free > t {
		n.stats.ContentionCyc += flits * (free - t)
		t = free
	}
	pt.eject[dst] = t + flits
	if v.Dup {
		// The duplicate trails the original through the ejection port.
		n.stats.Duplicated++
		dupAt = t + 1
		if free := pt.eject[dst]; free > dupAt {
			dupAt = free
		}
		pt.eject[dst] = dupAt + 1
	}
	return t, dupAt, hops, true
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

// SendBurst sends a train of flits flits from src to dst on one plane — the
// traffic of flits Sends made in a row this cycle — and delivers one
// network-owned packet for it: the last flit, carrying payload and, in
// Flits, the train's length. It returns the cycle the first flit lands:
// flit i lands at first+i, so the delivery comes at first+flits-1.
// Handlers must not retain the packet (the payload may be).
//
// The reservation is closed-form because every stage passes one flit per
// cycle. The flits leave the injection port one cycle apart, so flit i
// takes every link and the ejection port exactly i cycles after flit 0 and
// waits at each as long as flit 0 did; each is left free flits cycles after
// flit 0 took it, and injection waits add flits*w0 + flits*(flits-1)/2 for
// flit 0's wait w0. Stats grow by exactly what flits sends would add. The
// delivery-side counters (Delivered, TotalHops, TotalLatency, MaxLatency)
// are credited now, and match the flit loop's once the train has landed.
//
// With a fault injector attached, the flits go one by one through Send as
// network-owned packets with Flits 1, so each gets its own verdict and the
// injector's random stream is that of separate sends; SendBurst then
// returns 0, since faults decide where each flit lands. flits < 1 sends
// nothing.
func (n *Network) SendBurst(plane Plane, kind Kind, src, dst, flits int, payload interface{}) sim.Cycles {
	if n.faults != nil {
		for i := 0; i < flits; i++ {
			s, p := n.getPooled(plane, kind, src, dst, 1)
			p.Payload = payload
			n.send(p, s, 1)
		}
		return 0
	}
	if flits < 1 {
		return 0
	}
	s, p := n.getPooled(plane, kind, src, dst, flits)
	p.Payload = payload
	first, _ := n.send(p, s, uint64(flits))
	return first
}

// deliver credits a packet's delivery and hands it to its handler.
func (n *Network) deliver(p *Packet) {
	p.Delivered = n.kernel.Now()
	n.Arrive(p.Injected, p.Hops)
	n.handle(p)
}

// handle runs the destination's handler on p, if one is registered.
func (n *Network) handle(p *Packet) {
	if h := n.planes[p.Plane].handlers[p.Dst]; h != nil {
		h(p)
	}
}

// UnicastLatencyLowerBound returns the zero-contention latency between two
// tiles: boundary crossing plus hop traversal. Useful for response-time
// models and test oracles.
func (n *Network) UnicastLatencyLowerBound(src, dst int) sim.Cycles {
	return n.cfg.RouterLatency + sim.Cycles(n.mesh.HopDistance(src, dst))*n.cfg.HopLatency
}
