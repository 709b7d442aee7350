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

// routedCase is one random script of traffic on one plane, lone messages
// and, on the DMA planes, trains, and the fault plan it is also run under.
type routedCase struct {
	m      mesh.Mesh
	cfg    Config
	plane  Plane
	script []routedOp
	faults fault.Config
}

// routedOp is one Route call of the script.
type routedOp struct {
	at       sim.Cycles
	src, dst int
	flits    int
}

// randomRoutedCase draws a fabric, 1 to 48 sends over 40 cycles, on a DMA
// plane about half of them trains of 2 to 7 flits, and a fault plan:
// random drops, duplicates and delays, which strike only plane 5, and in
// some cases a tile killed and a link failed mid-script.
func randomRoutedCase(src *rng.Source) routedCase {
	var c routedCase
	c.m, c.cfg = randomFabric(src)
	c.plane = []Plane{PlaneDMA0, PlaneDMA1, PlanePM}[src.Intn(3)]
	n := c.m.N()
	for i, k := 0, 1+src.Intn(48); i < k; i++ {
		a := src.Intn(n)
		op := routedOp{at: sim.Cycles(src.Intn(40)), src: a, dst: (a + 1 + src.Intn(n-1)) % n, flits: 1}
		if c.plane != PlanePM && src.Bool() {
			op.flits = 2 + src.Intn(6)
		}
		c.script = append(c.script, op)
	}
	slices.SortStableFunc(c.script, func(a, b routedOp) int { return int(a.at) - int(b.at) })
	c.faults = fault.Config{
		Seed:      src.Uint64(),
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

// router is what the script drives: Network or the naive reference.
type router interface {
	Route(plane Plane, kind Kind, src, dst, flits int) (at, dupAt sim.Cycles, hops int, ok bool)
	Arrive(injected sim.Cycles, hops int)
	Stats() Stats
}

// refNet is a naive NoC router for one plane: flit by flit and hop by hop
// along mesh.NextHopXY, with link and port tables of its own laid out as
// Network's. It takes one fault verdict per Route call from its own
// injector, finding a dead link on mesh.XYRoute with LinkFailed. Its
// accounting rules are Network's: a train's delivery side is credited as
// it is routed, a lone message's by Arrive.
type refNet struct {
	k                    *sim.Kernel
	m                    mesh.Mesh
	cfg                  Config
	in                   *fault.Injector
	links, inject, eject []sim.Cycles
	stats                Stats
}

func newRefNet(k *sim.Kernel, m mesh.Mesh, cfg Config) *refNet {
	return &refNet{k: k, m: m, cfg: cfg, links: make([]sim.Cycles, m.N()*mesh.NumDirections),
		inject: make([]sim.Cycles, m.N()), eject: make([]sim.Cycles, m.N())}
}

// wait holds a flit ready at *t until the stage free at *free takes it,
// charging the wait as contention, and keeps the stage busy one cycle.
func (r *refNet) wait(t, free *sim.Cycles) {
	if *free > *t {
		r.stats.ContentionCyc += *free - *t
		*t = *free
	}
	*free = *t + 1
}

func (r *refNet) Route(plane Plane, kind Kind, src, dst, flits int) (at, dupAt sim.Cycles, hops int, ok bool) {
	now := r.k.Now()
	k := uint64(flits)
	r.stats.Sent += k
	r.stats.PerPlaneSent[plane] += k
	r.stats.PerKindSent[kind] += k
	past := make([]sim.Cycles, flits) // each flit's cycle past the last link
	for i := range past {
		t := now + r.cfg.RouterLatency
		r.wait(&t, &r.inject[src])
		hops = 0
		for cur := src; cur != dst; hops++ {
			next, dir := r.m.NextHopXY(cur, dst)
			r.wait(&t, &r.links[cur*mesh.NumDirections+int(dir)])
			t += r.cfg.HopLatency
			cur = next
		}
		past[i] = t
	}
	var v fault.Verdict
	if r.in != nil {
		route, crossed := r.m.XYRoute(src, dst), false
		for i := 1; i < len(route); i++ {
			crossed = crossed || r.in.LinkFailed(route[i-1], route[i])
		}
		v = r.in.PacketVerdict(int(plane), src, dst, crossed)
	}
	if v.Drop {
		r.stats.Dropped += k
		r.stats.PerPlaneDropped[plane] += k
		return 0, 0, hops, false
	}
	if v.ExtraDelay > 0 {
		r.stats.Delayed++
	}
	for i, t := range past {
		t += v.ExtraDelay
		r.wait(&t, &r.eject[dst])
		if i == 0 {
			at = t
		}
		if flits > 1 {
			r.stats.Delivered++
			r.stats.TotalHops += uint64(hops)
			r.stats.TotalLatency += t - now
			r.stats.MaxLatency = max(r.stats.MaxLatency, t-now)
		}
	}
	if v.Dup {
		// The duplicate reaches the ejection port one cycle behind the
		// original and waits for it, uncharged.
		r.stats.Duplicated++
		dupAt = max(at+1, r.eject[dst])
		r.eject[dst] = dupAt + 1
	}
	return at, dupAt, hops, true
}

func (r *refNet) Arrive(injected sim.Cycles, hops int) {
	lat := r.k.Now() - injected
	r.stats.Delivered++
	r.stats.TotalHops += uint64(hops)
	r.stats.TotalLatency += lat
	r.stats.MaxLatency = max(r.stats.MaxLatency, lat)
}

func (r *refNet) Stats() Stats { return r.stats }

// routedOutcome is what Network must reproduce of the reference.
type routedOutcome struct {
	land                 [][2]sim.Cycles // per op: first landing, duplicate's landing
	ok                   []bool
	links, inject, eject []sim.Cycles
	steps                []Stats // before each send, then after the drain
	faults               fault.Stats
	after                []fault.Verdict // the injector's next verdicts
}

// run plays the script on a fresh Network, or on the reference with ref,
// under the fault plan when faulted. A lone message lands as a typed op of
// the test's that calls Arrive, and its duplicate likewise.
func (c routedCase) run(ref, faulted bool) routedOutcome {
	k := &sim.Kernel{}
	var r router
	var n *Network
	var rn *refNet
	if ref {
		rn = newRefNet(k, c.m, c.cfg)
		r = rn
	} else {
		n = New(k, c.m, c.cfg)
		r = n
	}
	var in *fault.Injector
	if faulted {
		in = fault.NewInjector(c.faults)
		if ref {
			rn.in = in
		} else {
			n.AttachFaults(in)
		}
		in.Arm(k)
	}
	out := routedOutcome{land: make([][2]sim.Cycles, len(c.script)), ok: make([]bool, len(c.script))}
	sent := make([]struct {
		at   sim.Cycles
		hops int
	}, len(c.script))
	// A lone message's landing op carries its script index.
	arrive := k.RegisterOp(func(_ int32, x uint64) { r.Arrive(sent[x].at, sent[x].hops) })
	for i, op := range c.script {
		k.Run(op.at)
		out.steps = append(out.steps, r.Stats())
		at, dupAt, hops, ok := r.Route(c.plane, KindRegAccess, op.src, op.dst, op.flits)
		sent[i].at, sent[i].hops = k.Now(), hops
		out.land[i], out.ok[i] = [2]sim.Cycles{at, dupAt}, ok
		if op.flits == 1 && ok {
			k.AtOp(at, arrive, int32(op.dst), uint64(i))
		}
		if op.flits == 1 && dupAt > 0 {
			k.AtOp(dupAt, arrive, int32(op.dst), uint64(i))
		}
	}
	k.Drain()
	if ref {
		out.links, out.inject, out.eject = rn.links, rn.inject, rn.eject
	} else {
		pt := n.planes[c.plane]
		out.links, out.inject, out.eject = pt.links, pt.inject, pt.eject
	}
	out.steps = append(out.steps, r.Stats())
	if in != nil {
		out.faults = in.Stats()
		dst := 1
		if in.TileDead(dst) {
			dst = 0
		}
		for i := 0; i < 32; i++ {
			out.after = append(out.after, in.PacketVerdict(fault.PMPlane, 0, dst, false))
		}
	}
	return out
}

// TestRouteMatchesReference checks Route against a naive router that
// reserves the fabric flit by flit and hop by hop along mesh.NextHopXY:
// over random open and torus meshes, latencies and scripts of lone
// messages and trains on one plane, healthy and under drops, duplicates,
// delays, a dead tile and a failed link, the landing and duplicate cycles,
// the delivery verdicts, the link, injection and ejection tables, every
// Stats field before each send and after the last landing, and the
// injector's counts and random stream all match.
func TestRouteMatchesReference(t *testing.T) {
	src := rng.New(0x5017)
	for i := 0; i < 2000; i++ {
		c := randomRoutedCase(src)
		for _, faulted := range []bool{false, true} {
			want, got := c.run(true, faulted), c.run(false, faulted)
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
			case got.faults != want.faults:
				t.Fatalf("%s: injector stats\n got %+v\nwant %+v", where, got.faults, want.faults)
			case !slices.Equal(got.after, want.after):
				t.Fatalf("%s: injector random stream diverged", where)
			}
		}
	}
}
