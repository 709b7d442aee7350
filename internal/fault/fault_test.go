package fault

import (
	"testing"

	"blitzcoin/internal/sim"
)

// Two injectors with the same config must rule identically on the same
// packet sequence — the seeded-determinism convention of DESIGN.md.
func TestVerdictDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, DropRate: 0.1, DupRate: 0.05, DelayRate: 0.05}
	a := NewInjector(cfg)
	b := NewInjector(cfg)
	for i := 0; i < 5000; i++ {
		va := a.PacketVerdict(5, 0, 2, false)
		vb := b.PacketVerdict(5, 0, 2, false)
		if va != vb {
			t.Fatalf("packet %d: verdicts diverged: %+v vs %+v", i, va, vb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
	if a.Stats().Drops == 0 || a.Stats().Dups == 0 || a.Stats().Delays == 0 {
		t.Fatalf("expected some of each fault over 5000 packets: %+v", a.Stats())
	}
}

// Rate faults strike only PMPlane; other planes never consume RNG draws,
// so their traffic cannot perturb the fault schedule.
func TestVerdictPlaneFilter(t *testing.T) {
	in := NewInjector(Config{Seed: 7, DropRate: 0.5})
	for i := 0; i < 1000; i++ {
		if v := in.PacketVerdict(0, 0, 1, false); v != (Verdict{}) {
			t.Fatalf("plane 0 packet got verdict %+v", v)
		}
	}
	if in.Stats().Drops != 0 {
		t.Fatalf("plane filter leaked drops: %+v", in.Stats())
	}
}

func TestScheduledFaults(t *testing.T) {
	k := &sim.Kernel{}
	in := NewInjector(Config{
		TileKills:     []TileFault{{Tile: 3, At: 100}, {Tile: 1, At: 50}},
		StuckCounters: []TileFault{{Tile: 2, At: 60}},
		SlowTiles:     []SlowFault{{Tile: 4, At: 70, Factor: 2}},
		LinkFails:     []LinkFault{{A: 0, B: 1, At: 80}},
	})
	var kills, stucks []int
	var slows []int
	var links [][2]int
	in.OnTileKill(func(tile int) { kills = append(kills, tile) })
	in.OnLinkFail(func(a, b int) { links = append(links, [2]int{a, b}) })
	in.OnStuckCounter(func(tile int) { stucks = append(stucks, tile) })
	in.OnFailSlow(func(tile int, f float64) {
		if f != 2 {
			t.Fatalf("factor %v", f)
		}
		slows = append(slows, tile)
	})
	in.Arm(k)

	k.Run(55)
	if in.TileDead(3) || !in.TileDead(1) {
		t.Fatalf("at 55: dead(1)=%v dead(3)=%v", in.TileDead(1), in.TileDead(3))
	}
	if in.LinkFailed(0, 1) {
		t.Fatal("link failed early")
	}
	k.Run(200)
	if !in.TileDead(3) || !in.LinkFailed(0, 1) || !in.LinkFailed(1, 0) {
		t.Fatal("scheduled faults did not all fire")
	}
	if len(kills) != 2 || kills[0] != 1 || kills[1] != 3 {
		t.Fatalf("kill order %v", kills)
	}
	if len(stucks) != 1 || stucks[0] != 2 || len(slows) != 1 || slows[0] != 4 {
		t.Fatalf("stuck %v slow %v", stucks, slows)
	}
	if len(links) != 1 || links[0] != [2]int{0, 1} {
		t.Fatalf("link failures %v", links)
	}
	st := in.Stats()
	if st.Killed != 2 || st.Stuck != 1 || st.Slowed != 1 || st.LinksDown != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// Dead destinations and packets the sender reports crossing a failed link
// are dropped regardless of plane, before any random draw. Which routes
// cross a failed link is the NoC's ruling (TestDeadLinkVerdictMatchesXYRoute).
func TestStructuralDrops(t *testing.T) {
	k := &sim.Kernel{}
	in := NewInjector(Config{
		TileKills: []TileFault{{Tile: 9, At: 10}},
		LinkFails: []LinkFault{{A: 4, B: 5, At: 10}},
	})
	in.Arm(k)
	k.Run(20)

	if v := in.PacketVerdict(0, 0, 9, false); !v.Drop {
		t.Fatal("packet to dead tile not dropped")
	}
	if v := in.PacketVerdict(0, 0, 9, true); !v.Drop {
		t.Fatal("packet to dead tile across a failed link not dropped")
	}
	if v := in.PacketVerdict(2, 3, 6, true); !v.Drop {
		t.Fatal("packet across failed link not dropped")
	}
	if v := in.PacketVerdict(2, 0, 3, false); v.Drop {
		t.Fatal("healthy route dropped")
	}
	if !in.LinkFailed(4, 5) || !in.LinkFailed(5, 4) {
		t.Fatal("failed link not down in both directions")
	}
	st := in.Stats()
	if st.DeadDrops != 2 || st.LinkDrops != 1 || st.Drops != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// Arming order must not depend on config slice order: same-cycle faults are
// sorted by tile.
func TestArmOrderIndependence(t *testing.T) {
	run := func(kills []TileFault) []int {
		k := &sim.Kernel{}
		in := NewInjector(Config{TileKills: kills})
		var order []int
		in.OnTileKill(func(tile int) { order = append(order, tile) })
		in.Arm(k)
		k.Run(100)
		return order
	}
	a := run([]TileFault{{Tile: 5, At: 10}, {Tile: 2, At: 10}, {Tile: 8, At: 10}})
	b := run([]TileFault{{Tile: 8, At: 10}, {Tile: 5, At: 10}, {Tile: 2, At: 10}})
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lengths %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orders differ: %v vs %v", a, b)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad rate", func() { NewInjector(Config{DropRate: 1.5}) })
	mustPanic("bad factor", func() { NewInjector(Config{SlowTiles: []SlowFault{{Tile: 0, Factor: 0.5}}}) })
	mustPanic("double arm", func() {
		in := NewInjector(Config{})
		k := &sim.Kernel{}
		in.Arm(k)
		in.Arm(k)
	})
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	if !(Config{DropRate: 0.01}).Enabled() {
		t.Fatal("drop config reports disabled")
	}
}
