package noc

import (
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/sim"
)

// testNet is a network whose test messages land as a typed op of the
// test's own, as the coin emulator's do: the landing credits the message
// with Arrive and records the cycle.
type testNet struct {
	k    *sim.Kernel
	n    *Network
	land sim.OpCode
	msgs []testMsg
}

// testMsg is one lone message sent through testNet.send: its route, the
// fabric's verdict and the cycles it landed at, the original's first and
// then any duplicate's.
type testMsg struct {
	injected sim.Cycles
	hops     int
	ok       bool
	landed   []sim.Cycles
}

// latency is the message's injection-to-landing latency.
func (m testMsg) latency() sim.Cycles { return m.landed[0] - m.injected }

func newNet(w, h int, torus bool) *testNet {
	k := &sim.Kernel{}
	tn := &testNet{k: k, n: New(k, mesh.New(w, h, torus), DefaultConfig())}
	tn.land = k.RegisterOp(func(_ int32, x uint64) {
		m := &tn.msgs[x]
		tn.n.Arrive(m.injected, m.hops)
		m.landed = append(m.landed, k.Now())
	})
	return tn
}

// attach connects a fault injector for cfg, armed on the network's kernel.
func (tn *testNet) attach(cfg fault.Config) *fault.Injector {
	in := fault.NewInjector(cfg)
	tn.n.AttachFaults(in)
	in.Arm(tn.k)
	return in
}

// send routes one lone message, schedules its landings and returns its
// index in msgs.
func (tn *testNet) send(plane Plane, kind Kind, src, dst int) int {
	at, dupAt, hops, ok := tn.n.Route(plane, kind, src, dst, 1)
	i := len(tn.msgs)
	tn.msgs = append(tn.msgs, testMsg{injected: tn.k.Now(), hops: hops, ok: ok})
	if ok {
		tn.k.AtOp(at, tn.land, int32(dst), uint64(i))
	}
	if dupAt > 0 {
		tn.k.AtOp(dupAt, tn.land, int32(dst), uint64(i))
	}
	return i
}

func TestSingleHopLatency(t *testing.T) {
	tn := newNet(3, 3, false)
	i := tn.send(PlanePM, KindCoinStatus, 0, 1)
	tn.k.Drain()
	m := tn.msgs[i]
	if len(m.landed) != 1 {
		t.Fatal("message not delivered")
	}
	// RouterLatency(2) + 1 hop = 3 cycles.
	if m.latency() != 3 || m.hops != 1 {
		t.Fatalf("latency=%d hops=%d, want 3 and 1", m.latency(), m.hops)
	}
}

func TestMultiHopLatencyMatchesLowerBoundWithoutContention(t *testing.T) {
	tn := newNet(5, 5, false)
	i := tn.send(PlanePM, KindCoinUpdate, 0, 24)
	tn.k.Drain()
	m := tn.msgs[i]
	if want := tn.n.UnicastLatencyLowerBound(0, 24); m.latency() != want {
		t.Fatalf("latency = %d, want %d", m.latency(), want)
	}
	if m.hops != 8 {
		t.Fatalf("hops = %d, want 8", m.hops)
	}
}

func TestInjectionPortSerialization(t *testing.T) {
	// Two messages injected the same cycle from the same tile on the same
	// plane must serialize: one flit per cycle.
	tn := newNet(3, 1, false)
	a := tn.send(PlanePM, KindCoinStatus, 0, 1)
	b := tn.send(PlanePM, KindCoinStatus, 0, 1)
	tn.k.Drain()
	if ta, tb := tn.msgs[a].landed, tn.msgs[b].landed; len(ta) != 1 || len(tb) != 1 || tb[0] != ta[0]+1 {
		t.Fatalf("landings %v and %v, want one each, 1 cycle apart", ta, tb)
	}
	if tn.n.Stats().ContentionCyc == 0 {
		t.Fatal("expected contention to be recorded")
	}
}

func TestPlanesDoNotContend(t *testing.T) {
	// The same physical path on different planes is independent.
	tn := newNet(3, 1, false)
	a := tn.send(PlanePM, KindCoinStatus, 0, 1)
	b := tn.send(PlaneDMA0, KindOther, 0, 1)
	tn.k.Drain()
	if ta, tb := tn.msgs[a].landed, tn.msgs[b].landed; len(ta) != 1 || len(tb) != 1 || ta[0] != tb[0] {
		t.Fatalf("landings %v and %v, want simultaneous on separate planes", ta, tb)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Tiles 0 and 1 both send to tile 2 on a 3x1 mesh: the 1->2 link is
	// shared, so one message stalls.
	tn := newNet(3, 1, false)
	tn.send(PlanePM, KindCoinStatus, 0, 2)
	tn.send(PlanePM, KindCoinStatus, 1, 2)
	tn.k.Drain()
	st := tn.n.Stats()
	if st.Delivered != 2 {
		t.Fatalf("delivered %d", st.Delivered)
	}
	if st.ContentionCyc == 0 {
		t.Fatal("shared link should have recorded contention")
	}
}

func TestTorusTakesShortWay(t *testing.T) {
	tn := newNet(4, 4, true)
	if m := tn.msgs[tn.send(PlanePM, KindCoinStatus, 0, 3)]; m.hops != 1 {
		t.Fatalf("torus route took %d hops, want 1 (wrap)", m.hops)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every (src, dst) pair lands exactly once with sane latency.
	tn := newNet(4, 3, false)
	pairs := map[int][2]int{}
	for s := 0; s < 12; s++ {
		for d := 0; d < 12; d++ {
			if s != d {
				pairs[tn.send(PlanePM, KindCoinStatus, s, d)] = [2]int{s, d}
			}
		}
	}
	tn.k.Drain()
	for i, m := range tn.msgs {
		p := pairs[i]
		if len(m.landed) != 1 {
			t.Fatalf("pair %v landed %d times", p, len(m.landed))
		}
		if lb := tn.n.UnicastLatencyLowerBound(p[0], p[1]); m.latency() < lb {
			t.Fatalf("pair %v latency %d below the bound %d", p, m.latency(), lb)
		}
	}
	st := tn.n.Stats()
	if n := uint64(len(tn.msgs)); st.Sent != n || st.Delivered != n {
		t.Fatalf("stats sent=%d delivered=%d want %d", st.Sent, st.Delivered, n)
	}
	if st.TotalLatency == 0 {
		t.Fatal("latency not recorded")
	}
}

// Route panics on a message to its own tile and on an invalid plane.
func TestSelfSendPanics(t *testing.T) {
	tn := newNet(2, 2, false)
	for _, c := range []struct {
		name     string
		plane    Plane
		src, dst int
	}{
		{"self-send", PlanePM, 1, 1},
		{"invalid plane", NumPlanes, 0, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			tn.n.Route(c.plane, KindOther, c.src, c.dst, 1)
		}()
	}
}

func TestStatsPerPlaneAndKind(t *testing.T) {
	tn := newNet(2, 2, false)
	tn.send(PlanePM, KindCoinRequest, 0, 1)
	tn.send(PlaneDMA1, KindOther, 0, 1)
	tn.k.Drain()
	st := tn.n.Stats()
	if st.PerPlaneSent[PlanePM] != 1 || st.PerPlaneSent[PlaneDMA1] != 1 {
		t.Fatalf("per-plane = %v", st.PerPlaneSent)
	}
	if st.PerKindSent[KindCoinRequest] != 1 {
		t.Fatalf("per-kind = %v", st.PerKindSent)
	}
}

func TestKindString(t *testing.T) {
	for k := KindCoinRequest; k <= KindOther; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

// --- fault-injection behavior ------------------------------------------------

func TestLinkFailureDropsAndCounts(t *testing.T) {
	// 3x1 line: fail link 1<->2, then send 0->2 (routes across it) and 0->1
	// (does not). The crossing message must be reported dropped, not
	// silently delivered, and the drop must be charged to its plane.
	tn := newNet(3, 1, false)
	tn.attach(fault.Config{LinkFails: []fault.LinkFault{{A: 1, B: 2, At: 0}}})
	tn.k.Run(1)

	if m := tn.msgs[tn.send(PlanePM, KindCoinUpdate, 0, 2)]; m.ok {
		t.Fatal("message across failed link reported delivered")
	}
	if m := tn.msgs[tn.send(PlanePM, KindCoinStatus, 0, 1)]; !m.ok {
		t.Fatal("message on healthy link reported dropped")
	}
	// Reverse direction across the failed link is dead too.
	if m := tn.msgs[tn.send(PlaneDMA0, KindOther, 2, 0)]; m.ok {
		t.Fatal("reverse direction of failed link reported delivered")
	}
	tn.k.Drain()
	st := tn.n.Stats()
	if st.Sent != 3 || st.Delivered != 1 || st.Dropped != 2 {
		t.Fatalf("sent=%d delivered=%d dropped=%d", st.Sent, st.Delivered, st.Dropped)
	}
	if st.PerPlaneDropped[PlanePM] != 1 || st.PerPlaneDropped[PlaneDMA0] != 1 {
		t.Fatalf("per-plane drops = %v", st.PerPlaneDropped)
	}
}

func TestDropRateDropsOnTargetPlaneOnly(t *testing.T) {
	tn := newNet(4, 4, true)
	tn.attach(fault.Config{Seed: 11, DropRate: 1.0})

	if m := tn.msgs[tn.send(PlanePM, KindCoinUpdate, 0, 5)]; m.ok {
		t.Fatal("PM message survived a 100% drop rate")
	}
	if m := tn.msgs[tn.send(PlaneDMA0, KindOther, 0, 5)]; !m.ok {
		t.Fatal("non-PM message dropped by a plane-5 fault")
	}
	tn.k.Drain()
	st := tn.n.Stats()
	if st.PerPlaneDropped[PlanePM] != 1 || st.PerPlaneDropped[PlaneDMA0] != 0 {
		t.Fatalf("per-plane drops = %v", st.PerPlaneDropped)
	}
}

func TestDuplicationDeliversTwice(t *testing.T) {
	tn := newNet(3, 1, false)
	tn.attach(fault.Config{Seed: 3, DupRate: 1.0})

	i := tn.send(PlanePM, KindCoinUpdate, 0, 1)
	tn.k.Drain()
	got := tn.msgs[i].landed
	if len(got) != 2 {
		t.Fatalf("landed %d times, want 2", len(got))
	}
	if got[1] <= got[0] {
		t.Fatalf("duplicate at %d not after original at %d", got[1], got[0])
	}
	st := tn.n.Stats()
	if st.Duplicated != 1 || st.Delivered != 2 || st.Sent != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDelayPostponesDelivery(t *testing.T) {
	tn := newNet(3, 1, false)
	tn.attach(fault.Config{Seed: 5, DelayRate: 1.0, DelayMax: 16})

	i := tn.send(PlanePM, KindCoinStatus, 0, 1)
	tn.k.Drain()
	m := tn.msgs[i]
	if len(m.landed) != 1 {
		t.Fatal("delayed message never landed")
	}
	if base := tn.n.UnicastLatencyLowerBound(0, 1); m.latency() <= base {
		t.Fatalf("latency %d not above fault-free bound %d", m.latency(), base)
	}
	if tn.n.Stats().Delayed != 1 {
		t.Fatalf("stats %+v", tn.n.Stats())
	}
}

func TestDeadTileSwallowsTraffic(t *testing.T) {
	tn := newNet(3, 3, true)
	tn.attach(fault.Config{TileKills: []fault.TileFault{{Tile: 4, At: 0}}})
	tn.k.Run(1)

	i := tn.send(PlanePM, KindCoinRequest, 0, 4)
	tn.k.Drain()
	if m := tn.msgs[i]; m.ok || len(m.landed) != 0 {
		t.Fatalf("message to dead tile: ok=%v, landed at %v", m.ok, m.landed)
	}
	if tn.n.Stats().Dropped != 1 {
		t.Fatalf("stats %+v", tn.n.Stats())
	}
}

func TestFaultFreeSendIdenticalWithNilInjector(t *testing.T) {
	// Attaching no injector and attaching a zero-fault injector must produce
	// identical traffic timing — the hardening must not perturb healthy runs.
	run := func(attach bool) Stats {
		tn := newNet(4, 4, true)
		if attach {
			tn.attach(fault.Config{Seed: 9})
		}
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if s != d {
					tn.send(PlanePM, KindCoinStatus, s, d)
				}
			}
		}
		tn.k.Drain()
		return tn.n.Stats()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("stats diverged:\nnil injector: %+v\nzero-fault:   %+v", a, b)
	}
}
