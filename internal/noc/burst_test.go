package noc

import (
	"fmt"
	"slices"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

// burstCase is one randomized comparison of a SendBurst train against the
// same flits sent one Send at a time.
type burstCase struct {
	m        mesh.Mesh
	cfg      Config
	plane    Plane
	earlier  []burstSend
	at       sim.Cycles
	src, dst int
	flits    int
}

// burstSend is one piece of earlier traffic on the burst's plane.
type burstSend struct {
	at       sim.Cycles
	src, dst int
	flits    int
}

// randomFabric draws a mesh of at least two tiles, open or torus, every
// eighth one of the degenerate shapes (1xN, Nx1, 2-wide and 2-high tori),
// and random hop and router latencies.
func randomFabric(src *rng.Source) (mesh.Mesh, Config) {
	w, h, torus := 1+src.Intn(6), 1+src.Intn(6), src.Bool()
	if src.Intn(8) == 0 {
		shapes := [][2]int{{1, 1 + src.Intn(6)}, {1 + src.Intn(6), 1}, {2, 1 + src.Intn(5)}, {1 + src.Intn(5), 2}}
		s := shapes[src.Intn(len(shapes))]
		w, h, torus = s[0], s[1], true
	}
	for w*h < 2 {
		w++
	}
	return mesh.New(w, h, torus), Config{HopLatency: sim.Cycles(1 + src.Intn(3)), RouterLatency: sim.Cycles(src.Intn(4))}
}

// randomBurstCase draws a fabric, earlier traffic that often shares the
// burst's source, destination or route, and a train of 1 to 64 flits.
func randomBurstCase(src *rng.Source) burstCase {
	var c burstCase
	c.m, c.cfg = randomFabric(src)
	c.plane = []Plane{PlaneDMA0, PlaneDMA1, PlanePM}[src.Intn(3)]
	pair := func() (int, int) {
		a := src.Intn(c.m.N())
		b := (a + 1 + src.Intn(c.m.N()-1)) % c.m.N()
		return a, b
	}
	c.src, c.dst = pair()
	c.at = sim.Cycles(src.Intn(24))
	for i, n := 0, src.Intn(24); i < n; i++ {
		s := burstSend{at: sim.Cycles(src.Intn(int(c.at) + 1)), flits: 1 + src.Intn(4)}
		s.src, s.dst = pair()
		switch src.Intn(3) {
		case 0:
			if c.src != s.dst {
				s.src = c.src
			}
		case 1:
			if s.src != c.dst {
				s.dst = c.dst
			}
		}
		c.earlier = append(c.earlier, s)
	}
	slices.SortStableFunc(c.earlier, func(a, b burstSend) int { return int(a.at) - int(b.at) })
	c.flits = 1 + src.Intn(64)
	return c
}

// burstOutcome is everything a train must reproduce of its flit loop.
type burstOutcome struct {
	links, inject, eject []sim.Cycles
	stats                Stats
	nextID               uint64
	first, last          sim.Cycles
}

// run plays the case on a fresh network. With train, every multi-flit
// send, the burst's included, is one SendBurst; otherwise it is a loop of
// Sends of caller-owned packets.
func (c burstCase) run(train bool) burstOutcome {
	k := &sim.Kernel{}
	n := New(k, c.m, c.cfg)
	var out burstOutcome
	marker := new(int)
	n.SetHandler(c.dst, c.plane, func(p *Packet) {
		if p.Payload == marker {
			out.last = p.Delivered
		}
	})
	send := func(src, dst, flits int, payload interface{}) (first sim.Cycles, loop []*Packet) {
		if train {
			return n.SendBurst(c.plane, KindOther, src, dst, flits, payload), nil
		}
		for i := 0; i < flits; i++ {
			p := &Packet{Plane: c.plane, Kind: KindOther, Src: src, Dst: dst, Payload: payload}
			n.Send(p)
			loop = append(loop, p)
		}
		return 0, loop
	}
	for _, s := range c.earlier {
		k.Run(s.at)
		send(s.src, s.dst, s.flits, nil)
	}
	k.Run(c.at)
	first, loop := send(c.src, c.dst, c.flits, marker)
	k.Drain()
	if !train {
		first = loop[0].Delivered
	}
	pt := n.planes[c.plane]
	out.links, out.inject, out.eject = pt.links, pt.inject, pt.eject
	out.stats, out.nextID, out.first = n.Stats(), n.nextID, first
	return out
}

// TestSendBurstMatchesFlitLoop checks SendBurst's closed form against the
// flit loop it replaces: over random open and torus meshes, timing knobs,
// earlier traffic on the same plane and train lengths, the link, injection
// and ejection tables, every Stats field, the packet-ID counter, the last
// delivery's cycle and the returned first-flit cycle all match.
func TestSendBurstMatchesFlitLoop(t *testing.T) {
	src := rng.New(0xb0257)
	for i := 0; i < 3000; i++ {
		c := randomBurstCase(src)
		want, got := c.run(false), c.run(true)
		where := fmt.Sprintf("case %d: %dx%d torus=%v %+v, %d earlier sends, %d flits %d->%d at %d",
			i, c.m.W, c.m.H, c.m.Torus, c.cfg, len(c.earlier), c.flits, c.src, c.dst, c.at)
		switch {
		case !slices.Equal(got.links, want.links):
			t.Fatalf("%s: link table\n got %v\nwant %v", where, got.links, want.links)
		case !slices.Equal(got.inject, want.inject):
			t.Fatalf("%s: injection ports\n got %v\nwant %v", where, got.inject, want.inject)
		case !slices.Equal(got.eject, want.eject):
			t.Fatalf("%s: ejection ports\n got %v\nwant %v", where, got.eject, want.eject)
		case got.stats != want.stats:
			t.Fatalf("%s: stats\n got %+v\nwant %+v", where, got.stats, want.stats)
		case got.nextID != want.nextID:
			t.Fatalf("%s: packet IDs up to %d, want %d", where, got.nextID, want.nextID)
		case got.last != want.last:
			t.Fatalf("%s: last flit landed at %d, want %d", where, got.last, want.last)
		case got.first != want.first:
			t.Fatalf("%s: SendBurst returned %d, first flit landed at %d", where, got.first, want.first)
		}
	}
}

// A train delivers once, as the last flit, and carries its length.
func TestSendBurstDeliversOnce(t *testing.T) {
	k, n := newNet(4, 4, true)
	var got []*Packet
	n.SetHandler(5, PlaneDMA1, func(p *Packet) { got = append(got, p) })
	first := n.SendBurst(PlaneDMA1, KindOther, 0, 5, 9, "payload")
	k.Drain()
	if len(got) != 1 {
		t.Fatalf("%d deliveries, want 1", len(got))
	}
	p := got[0]
	if p.Flits != 9 || p.Payload != "payload" || p.Delivered != first+8 || p.ID != 9 || p.Hops != 2 {
		t.Fatalf("delivery %+v, want the 9th flit landing at %d", *p, first+8)
	}
	if first != n.UnicastLatencyLowerBound(0, 5) {
		t.Fatalf("first flit at %d on an idle fabric, want %d", first, n.UnicastLatencyLowerBound(0, 5))
	}
}

// With a fault injector attached the flits travel one by one: a healthy
// fabric delivers every flit on its own, one flit each, at the cycles and
// with the stats of the closed-form train.
func TestSendBurstUnderInjectorSendsEachFlit(t *testing.T) {
	k, n := newNet(5, 3, false)
	inj := fault.NewInjector(fault.Config{Seed: 3})
	n.AttachFaults(inj)
	inj.Arm(k)
	var at []sim.Cycles
	n.SetHandler(13, PlaneDMA0, func(p *Packet) {
		if p.Flits != 1 {
			t.Fatalf("flit delivery stands for %d flits", p.Flits)
		}
		at = append(at, p.Delivered)
	})
	if first := n.SendBurst(PlaneDMA0, KindOther, 1, 13, 6, nil); first != 0 {
		t.Fatalf("SendBurst under an injector returned %d, want 0", first)
	}
	k.Drain()

	k2, plain := newNet(5, 3, false)
	first := plain.SendBurst(PlaneDMA0, KindOther, 1, 13, 6, nil)
	k2.Drain()
	for i, c := range at {
		if c != first+sim.Cycles(i) {
			t.Fatalf("flit deliveries at %v, want from %d one cycle apart", at, first)
		}
	}
	if len(at) != 6 || n.Stats() != plain.Stats() {
		t.Fatalf("%d deliveries, stats %+v, want 6 and %+v", len(at), n.Stats(), plain.Stats())
	}
}

// A burst to a dead tile, or across a failed link, loses every flit: the
// drop counters grow by the train's length and the handler never runs.
func TestFaultedBurstDropsEveryFlit(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  fault.Config
	}{
		{"dead tile", fault.Config{TileKills: []fault.TileFault{{Tile: 2}}}},
		{"failed link", fault.Config{LinkFails: []fault.LinkFault{{A: 1, B: 2}}}},
	} {
		k, n := newNet(3, 1, false)
		inj := fault.NewInjector(c.cfg)
		n.AttachFaults(inj)
		inj.Arm(k)
		k.Run(1)
		n.SetHandler(2, PlaneDMA0, func(*Packet) { t.Fatalf("%s: a flit was delivered", c.name) })
		n.SendBurst(PlaneDMA0, KindOther, 0, 2, 7, nil)
		k.Drain()
		st := n.Stats()
		if st.Sent != 7 || st.Dropped != 7 || st.PerPlaneDropped[PlaneDMA0] != 7 || st.Delivered != 0 {
			t.Fatalf("%s: sent=%d dropped=%d (DMA0 %d) delivered=%d, want 7 7 7 0",
				c.name, st.Sent, st.Dropped, st.PerPlaneDropped[PlaneDMA0], st.Delivered)
		}
	}
}
