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

// routedCase is one random script of traffic on one plane, mixing
// messages its sender keeps, caller-owned packets and trains, and the
// fault plan it is also run under.
type routedCase struct {
	m      mesh.Mesh
	cfg    Config
	plane  Plane
	script []routedOp
	faults fault.Config
}

// routedOp is one send of the script: a kept message (flits 0), a Send of
// a caller-owned packet (flits 1) or a SendBurst train.
type routedOp struct {
	at       sim.Cycles
	src, dst int
	flits    int
}

// randomRoutedCase draws a fabric, 1 to 48 sends over 40 cycles, about a
// third of them kept messages, and a fault plan: random drops,
// duplicates and delays on the plane, and in some cases a tile killed
// and a link failed mid-script.
func randomRoutedCase(src *rng.Source) routedCase {
	var c routedCase
	c.m, c.cfg = randomFabric(src)
	c.plane = []Plane{PlaneDMA0, PlaneDMA1, PlanePM}[src.Intn(3)]
	n := c.m.N()
	for i, k := 0, 1+src.Intn(48); i < k; i++ {
		a := src.Intn(n)
		op := routedOp{at: sim.Cycles(src.Intn(40)), src: a, dst: (a + 1 + src.Intn(n-1)) % n}
		switch src.Intn(3) {
		case 1:
			op.flits = 1
		case 2:
			op.flits = 1 + src.Intn(6)
		}
		c.script = append(c.script, op)
	}
	slices.SortStableFunc(c.script, func(a, b routedOp) int { return int(a.at) - int(b.at) })
	c.faults = fault.Config{
		Seed:      src.Uint64(),
		Plane:     int(c.plane),
		DropRate:  0.2 * src.Float64(),
		DupRate:   0.3 * src.Float64(),
		DelayRate: 0.3 * src.Float64(),
		DelayMax:  sim.Cycles(1 + src.Intn(8)),
	}
	if src.Intn(3) == 0 {
		c.faults.TileKills = []fault.TileFault{{Tile: src.Intn(n), At: sim.Cycles(src.Intn(40))}}
	}
	if a := src.Intn(n); src.Intn(3) == 0 {
		if b, ok := c.m.Neighbor(a, mesh.Direction(src.Intn(mesh.NumDirections))); ok && b != a {
			c.faults.LinkFails = []fault.LinkFault{{A: a, B: b, At: sim.Cycles(src.Intn(40))}}
		}
	}
	return c
}

// routedOutcome is what the kept messages must reproduce of the same
// traffic sent as caller-owned packets.
type routedOutcome struct {
	land                 [][2]sim.Cycles // per kept message: landing, duplicate's landing
	ok                   []bool
	links, inject, eject []sim.Cycles
	steps                []Stats // before each send, then after the drain
	nextID               uint64
	faults               fault.Stats
	after                []fault.Verdict // the injector's next verdicts
}

// run plays the script on a fresh network, under the fault plan when
// faulted. With routed, each kept message goes through Route and lands as
// a typed op of the test's that calls Arrive; otherwise it is a Send of a
// caller-owned packet.
func (c routedCase) run(routed, faulted bool) routedOutcome {
	k := &sim.Kernel{}
	n := New(k, c.m, c.cfg)
	var in *fault.Injector
	if faulted {
		in = fault.NewInjector(c.faults)
		n.AttachFaults(in)
		in.Arm(k)
	}
	out := routedOutcome{land: make([][2]sim.Cycles, len(c.script)), ok: make([]bool, len(c.script))}
	sent := make([]struct {
		at   sim.Cycles
		hops int
	}, len(c.script))
	// A kept message's landing op carries its script index, doubled, plus
	// one for the duplicate.
	arrive := k.RegisterOp(func(_ int32, x uint64) {
		i := x >> 1
		n.Arrive(sent[i].at, sent[i].hops)
		out.land[i][x&1] = k.Now()
	})
	for tile := 0; tile < c.m.N(); tile++ {
		n.SetHandler(tile, c.plane, func(p *Packet) {
			if i, kept := p.Payload.(int); kept {
				d := 0
				if p.Dup {
					d = 1
				}
				out.land[i][d] = p.Delivered
			}
		})
	}
	for i, op := range c.script {
		k.Run(op.at)
		out.steps = append(out.steps, n.Stats())
		switch {
		case op.flits == 1:
			n.Send(&Packet{Plane: c.plane, Kind: KindRegAccess, Src: op.src, Dst: op.dst})
		case op.flits > 1:
			n.SendBurst(c.plane, KindOther, op.src, op.dst, op.flits, nil)
		case routed:
			at, dupAt, hops, ok := n.Route(c.plane, KindCoinStatus, op.src, op.dst)
			sent[i].at, sent[i].hops, out.ok[i] = k.Now(), hops, ok
			if ok {
				k.AtOp(at, arrive, int32(op.dst), uint64(i)<<1)
			}
			if dupAt > 0 {
				k.AtOp(dupAt, arrive, int32(op.dst), uint64(i)<<1|1)
			}
		default:
			out.ok[i] = n.Send(&Packet{Plane: c.plane, Kind: KindCoinStatus, Src: op.src, Dst: op.dst, Payload: i})
		}
	}
	k.Drain()
	pt := n.planes[c.plane]
	out.links, out.inject, out.eject = pt.links, pt.inject, pt.eject
	out.steps, out.nextID = append(out.steps, n.Stats()), n.nextID
	if in != nil {
		out.faults = in.Stats()
		dst := 1
		if in.TileDead(dst) {
			dst = 0
		}
		for i := 0; i < 32; i++ {
			out.after = append(out.after, in.PacketVerdict(int(c.plane), 0, dst, false))
		}
	}
	return out
}

// TestRouteMatchesSend checks that a message its sender keeps, routed with
// Route and credited with Arrive when it lands, is the same traffic as a
// caller-owned packet sent with Send: over random open and torus meshes,
// latencies and scripts that mix both with Sends and trains on one plane,
// healthy and under drops, duplicates, delays, a dead tile and a failed
// link, the landing and duplicate cycles, the delivery verdicts, the link,
// injection and ejection tables, every Stats field before each send and
// after the last landing, the packet-ID counter and the injector's counts
// and random stream all match.
func TestRouteMatchesSend(t *testing.T) {
	src := rng.New(0x5017)
	for i := 0; i < 2000; i++ {
		c := randomRoutedCase(src)
		for _, faulted := range []bool{false, true} {
			want, got := c.run(false, faulted), c.run(true, faulted)
			where := fmt.Sprintf("case %d (faulted %v): %dx%d torus=%v %+v plane %d, %d sends, faults %+v",
				i, faulted, c.m.W, c.m.H, c.m.Torus, c.cfg, c.plane, len(c.script), c.faults)
			switch {
			case !slices.Equal(got.land, want.land):
				t.Fatalf("%s: landings\n got %v\nwant %v", where, got.land, want.land)
			case !slices.Equal(got.ok, want.ok):
				t.Fatalf("%s: delivery verdicts\n got %v\nwant %v", where, got.ok, want.ok)
			case !slices.Equal(got.links, want.links):
				t.Fatalf("%s: link table\n got %v\nwant %v", where, got.links, want.links)
			case !slices.Equal(got.inject, want.inject):
				t.Fatalf("%s: injection ports\n got %v\nwant %v", where, got.inject, want.inject)
			case !slices.Equal(got.eject, want.eject):
				t.Fatalf("%s: ejection ports\n got %v\nwant %v", where, got.eject, want.eject)
			case !slices.Equal(got.steps, want.steps):
				for s := range got.steps {
					if got.steps[s] != want.steps[s] {
						t.Fatalf("%s: stats before send %d of %d\n got %+v\nwant %+v",
							where, s, len(c.script), got.steps[s], want.steps[s])
					}
				}
			case got.nextID != want.nextID:
				t.Fatalf("%s: packet IDs up to %d, want %d", where, got.nextID, want.nextID)
			case got.faults != want.faults:
				t.Fatalf("%s: injector stats\n got %+v\nwant %+v", where, got.faults, want.faults)
			case !slices.Equal(got.after, want.after):
				t.Fatalf("%s: injector random stream diverged", where)
			}
		}
	}
}
