package noc

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/sim"
)

// hop is one link a packet reserves: the tile it leaves and the port.
type hop struct {
	tile int
	dir  mesh.Direction
}

// referenceHops walks mesh.NextHopXY from src to dst, the reference the
// coordinate walk in Send must reproduce.
func referenceHops(m mesh.Mesh, src, dst int) []hop {
	var out []hop
	for cur := src; cur != dst; {
		next, dir := m.NextHopXY(cur, dst)
		out = append(out, hop{cur, dir})
		cur = next
	}
	return out
}

// reservedHops sends one packet on an idle network and reads back the
// links it reserved, in order. With no contention the k-th link of the
// route is reserved until departure+k+1, so the reservation times order
// the links.
func reservedHops(m mesh.Mesh, src, dst int) ([]hop, int) {
	k := &sim.Kernel{}
	n := New(k, m, DefaultConfig())
	p := &Packet{Plane: PlanePM, Kind: KindCoinStatus, Src: src, Dst: dst}
	n.Send(p)
	links := n.planes[PlanePM].links
	var idx []int
	for li, free := range links {
		if free != 0 {
			idx = append(idx, li)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return links[idx[a]] < links[idx[b]] })
	out := make([]hop, len(idx))
	for i, li := range idx {
		out[i] = hop{li / mesh.NumDirections, mesh.Direction(li % mesh.NumDirections)}
	}
	return out, p.Hops
}

// Every (src, dst) pair of open and torus meshes, including the 1-wide,
// 2-wide and 2-high shapes whose port choice is a tie-break, reserves
// exactly the links of the NextHopXY walk, in order.
func TestRouteWalkMatchesNextHopXY(t *testing.T) {
	shapes := [][2]int{{1, 6}, {6, 1}, {2, 2}, {2, 3}, {3, 2}, {5, 2}, {3, 3}, {4, 4}, {5, 7}}
	for _, s := range shapes {
		for _, torus := range []bool{false, true} {
			m := mesh.New(s[0], s[1], torus)
			t.Run(fmt.Sprintf("%dx%d-torus=%v", s[0], s[1], torus), func(t *testing.T) {
				for src := 0; src < m.N(); src++ {
					for dst := 0; dst < m.N(); dst++ {
						if src == dst {
							continue
						}
						want := referenceHops(m, src, dst)
						got, hops := reservedHops(m, src, dst)
						if hops != len(want) {
							t.Fatalf("%d->%d: Hops = %d, reference walk has %d", src, dst, hops, len(want))
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%d->%d: reserved links %v, reference walk %v", src, dst, got, want)
						}
					}
				}
			})
		}
	}
}

// With one link failed, Send drops exactly the packets whose mesh.XYRoute
// crosses it in either direction, on every shape the route walk is checked
// on, including the 2-wide and 2-high tori whose two ports reach the same
// neighbor. The packets are all sent at cycle 0, so later ones also cross
// links already reserved by earlier ones.
func TestDeadLinkVerdictMatchesXYRoute(t *testing.T) {
	shapes := [][2]int{{1, 6}, {6, 1}, {2, 2}, {2, 3}, {3, 2}, {5, 2}, {3, 3}, {4, 4}, {5, 7}}
	for _, s := range shapes {
		for _, torus := range []bool{false, true} {
			m := mesh.New(s[0], s[1], torus)
			t.Run(fmt.Sprintf("%dx%d-torus=%v", s[0], s[1], torus), func(t *testing.T) {
				routes := make([][]int, m.N()*m.N())
				for src := 0; src < m.N(); src++ {
					for dst := 0; dst < m.N(); dst++ {
						routes[src*m.N()+dst] = m.XYRoute(src, dst)
					}
				}
				for a := 0; a < m.N(); a++ {
					for _, b := range m.DistinctNeighbors(a) {
						if b < a {
							continue
						}
						k := &sim.Kernel{}
						n := New(k, m, DefaultConfig())
						inj := fault.NewInjector(fault.Config{LinkFails: []fault.LinkFault{{A: a, B: b}}})
						n.AttachFaults(inj)
						inj.Arm(k)
						k.Run(0)
						for src := 0; src < m.N(); src++ {
							for dst := 0; dst < m.N(); dst++ {
								if src == dst {
									continue
								}
								route, crosses := routes[src*m.N()+dst], false
								for i := 1; i < len(route); i++ {
									crosses = crosses || inj.LinkFailed(route[i-1], route[i])
								}
								p := &Packet{Plane: PlanePM, Kind: KindCoinStatus, Src: src, Dst: dst}
								if delivered := n.Send(p); delivered == crosses {
									t.Fatalf("link %d-%d down: %d->%d (route %v) delivered=%v", a, b, src, dst, route, delivered)
								}
							}
						}
					}
				}
			})
		}
	}
}

// A link that fails mid-run kills the packets routed across it from then
// on, while packets sent across it before the failure are delivered. Until
// the failure the network tracks no dead port; once it fires, the two ports
// of the link are dead.
func TestLinkFailureMidRun(t *testing.T) {
	const failAt = 50
	k, n := newNet(4, 1, false)
	inj := fault.NewInjector(fault.Config{LinkFails: []fault.LinkFault{{A: 1, B: 2, At: failAt}}})
	n.AttachFaults(inj)
	inj.Arm(k)

	delivered := map[uint64]bool{}
	for tile := 0; tile < 4; tile++ {
		n.SetHandler(tile, PlanePM, func(p *Packet) { delivered[p.ID] = true })
	}
	send := func(src, dst int) (*Packet, bool) {
		p := &Packet{Plane: PlanePM, Kind: KindCoinUpdate, Src: src, Dst: dst}
		return p, n.Send(p)
	}

	before, ok := send(0, 3)
	if !ok {
		t.Fatal("packet sent before the failure reported dropped")
	}
	if len(n.deadPorts) != 0 {
		t.Fatalf("dead ports %v before the failure time", n.deadPorts)
	}
	var after, afterRev, beside *Packet
	var okAfter, okRev, okBeside bool
	k.At(failAt+10, func() {
		after, okAfter = send(0, 3)
		afterRev, okRev = send(3, 1)
		beside, okBeside = send(2, 3)
	})
	k.Drain()

	if want := []int{1*mesh.NumDirections + int(mesh.East), 2*mesh.NumDirections + int(mesh.West)}; !slices.Equal(n.deadPorts, want) {
		t.Fatalf("dead ports %v after the failure, want %v", n.deadPorts, want)
	}
	if !delivered[before.ID] {
		t.Fatal("packet sent across the link before it failed was not delivered")
	}
	if okAfter || okRev || delivered[after.ID] || delivered[afterRev.ID] {
		t.Fatalf("packets crossing the dead link: ok=%v/%v delivered=%v/%v, want dropped",
			okAfter, okRev, delivered[after.ID], delivered[afterRev.ID])
	}
	if !okBeside || !delivered[beside.ID] {
		t.Fatal("packet on a healthy link after the failure was not delivered")
	}
	st := n.Stats()
	if st.Sent != 4 || st.Delivered != 2 || st.Dropped != 2 || st.PerPlaneDropped[PlanePM] != 2 {
		t.Fatalf("sent=%d delivered=%d dropped=%d (PM %d), want 4/2/2/2",
			st.Sent, st.Delivered, st.Dropped, st.PerPlaneDropped[PlanePM])
	}
	if got := inj.Stats().LinkDrops; got != 2 {
		t.Fatalf("injector counted %d link drops, want 2", got)
	}
}
