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

// burstCase is one randomized comparison of a train routed with one Route
// call against the same flits routed one lone message at a time.
type burstCase struct {
	m        mesh.Mesh
	cfg      Config
	plane    Plane
	earlier  []burstSend
	at       sim.Cycles
	src, dst int
	flits    int
	// cut is a link of the train's XY route, failed in the case's
	// dead-link variant.
	cut [2]int
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
	route := c.m.XYRoute(c.src, c.dst)
	j := 1 + src.Intn(len(route)-1)
	c.cut = [2]int{route[j-1], route[j]}
	return c
}

// burstFaults are the fault plans each case is played under: none, the
// train's destination dead from the start, and a link of its route failed
// from the start.
func (c burstCase) burstFaults() []*fault.Config {
	return []*fault.Config{
		nil,
		{TileKills: []fault.TileFault{{Tile: c.dst}}},
		{LinkFails: []fault.LinkFault{{A: c.cut[0], B: c.cut[1]}}},
	}
}

// burstOutcome is everything a train must reproduce of its flit loop.
type burstOutcome struct {
	links, inject, eject []sim.Cycles
	stats                Stats
	first, last          sim.Cycles
	ok                   bool
}

// run plays the case on a fresh network under faults (nil for none). With
// train, every multi-flit send, the burst's included, is one Route call;
// otherwise it is a loop of lone messages, each landing as a typed op that
// credits it with Arrive. A lone message, a train of one, lands that way
// in both.
func (c burstCase) run(train bool, faults *fault.Config) burstOutcome {
	k := &sim.Kernel{}
	n := New(k, c.m, c.cfg)
	if faults != nil {
		in := fault.NewInjector(*faults)
		n.AttachFaults(in)
		in.Arm(k)
	}
	// The landing op's x packs the send cycle above the hop count.
	arrive := k.RegisterOp(func(_ int32, x uint64) { n.Arrive(x>>16, int(x&0xffff)) })
	send := func(src, dst, flits int) (first, last sim.Cycles, ok bool) {
		if train && flits > 1 {
			first, _, _, ok = n.Route(c.plane, KindOther, src, dst, flits)
			return first, first + sim.Cycles(flits) - 1, ok
		}
		for i := 0; i < flits; i++ {
			at, _, hops, fok := n.Route(c.plane, KindOther, src, dst, 1)
			if fok {
				k.AtOp(at, arrive, int32(dst), k.Now()<<16|uint64(hops))
			}
			if i == 0 {
				first = at
			}
			last, ok = at, fok
		}
		return first, last, ok
	}
	for _, s := range c.earlier {
		k.Run(s.at)
		send(s.src, s.dst, s.flits)
	}
	k.Run(c.at)
	var out burstOutcome
	out.first, out.last, out.ok = send(c.src, c.dst, c.flits)
	if !out.ok {
		out.first, out.last = 0, 0
	}
	k.Drain()
	pt := n.planes[c.plane]
	out.links, out.inject, out.eject = pt.links, pt.inject, pt.eject
	out.stats = n.Stats()
	return out
}

// TestSendBurstMatchesFlitLoop checks Route's closed form for a train
// against the flit loop it replaces: over random open and torus meshes,
// timing knobs, earlier traffic on the same plane and train lengths,
// healthy and with the train's destination dead or a link of its route
// failed, the link, injection and ejection tables, every Stats field once
// every flit has landed, the verdict and the first and last flits' landing
// cycles all match.
func TestSendBurstMatchesFlitLoop(t *testing.T) {
	src := rng.New(0xb0257)
	for i := 0; i < 3000; i++ {
		c := randomBurstCase(src)
		for f, faults := range c.burstFaults() {
			want, got := c.run(false, faults), c.run(true, faults)
			where := fmt.Sprintf("case %d, fault plan %d: %dx%d torus=%v %+v, %d earlier sends, %d flits %d->%d at %d",
				i, f, c.m.W, c.m.H, c.m.Torus, c.cfg, len(c.earlier), c.flits, c.src, c.dst, c.at)
			switch {
			case !slices.Equal(got.links, want.links):
				t.Fatalf("%s: link table\n got %v\nwant %v", where, got.links, want.links)
			case !slices.Equal(got.inject, want.inject):
				t.Fatalf("%s: injection ports\n got %v\nwant %v", where, got.inject, want.inject)
			case !slices.Equal(got.eject, want.eject):
				t.Fatalf("%s: ejection ports\n got %v\nwant %v", where, got.eject, want.eject)
			case got.stats != want.stats:
				t.Fatalf("%s: stats\n got %+v\nwant %+v", where, got.stats, want.stats)
			case got.ok != want.ok || (f > 0) == got.ok:
				t.Fatalf("%s: train delivered=%v, flit loop %v", where, got.ok, want.ok)
			case got.first != want.first || got.last != want.last:
				t.Fatalf("%s: flits landed %d..%d, want %d..%d", where, got.first, got.last, want.first, want.last)
			}
		}
	}
}

// A train is one landing: Route returns its first flit's cycle, and the
// sender schedules the train's one landing op at its last flit's. Its
// delivery side is credited as it is routed.
func TestSendBurstDeliversOnce(t *testing.T) {
	tn := newNet(4, 4, true)
	first, dupAt, hops, ok := tn.n.Route(PlaneDMA1, KindOther, 0, 5, 9)
	if !ok || dupAt != 0 || hops != 2 {
		t.Fatalf("Route = (%d, %d, %d, %v), want a delivered 2-hop train", first, dupAt, hops, ok)
	}
	if want := tn.n.UnicastLatencyLowerBound(0, 5); first != want {
		t.Fatalf("first flit at %d on an idle fabric, want %d", first, want)
	}
	want := Stats{Sent: 9, Delivered: 9, TotalHops: 18, TotalLatency: 9*first + 36, MaxLatency: first + 8, ContentionCyc: 36}
	want.PerPlaneSent[PlaneDMA1] = 9
	want.PerKindSent[KindOther] = 9
	if st := tn.n.Stats(); st != want {
		t.Fatalf("stats after Route\n got %+v\nwant %+v", st, want)
	}
}

// A train to a dead tile, or across a failed link, loses every flit: the
// drop counters grow by the train's length, its injection wait is charged
// as its flits' was, nothing lands, and every Stats field matches the same
// flits routed one at a time.
func TestFaultedBurstDropsEveryFlit(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  fault.Config
	}{
		{"dead tile", fault.Config{TileKills: []fault.TileFault{{Tile: 2}}}},
		{"failed link", fault.Config{LinkFails: []fault.LinkFault{{A: 1, B: 2}}}},
	} {
		bc := burstCase{m: mesh.New(3, 1, false), cfg: DefaultConfig(), plane: PlaneDMA0, at: 1, src: 0, dst: 2, flits: 7}
		got, loop := bc.run(true, &c.cfg), bc.run(false, &c.cfg)
		st := got.stats
		if got.ok || st.Sent != 7 || st.Dropped != 7 || st.PerPlaneDropped[PlaneDMA0] != 7 || st.Delivered != 0 || st.ContentionCyc != 21 {
			t.Fatalf("%s: ok=%v sent=%d dropped=%d (DMA0 %d) delivered=%d contention=%d, want false 7 7 7 0 21",
				c.name, got.ok, st.Sent, st.Dropped, st.PerPlaneDropped[PlaneDMA0], st.Delivered, st.ContentionCyc)
		}
		if st != loop.stats {
			t.Fatalf("%s: stats\n got %+v\nflit loop %+v", c.name, st, loop.stats)
		}
	}
}
