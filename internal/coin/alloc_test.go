package coin

import (
	"runtime"
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
)

// runAllocs builds a d = 16 4-way hotspot trial the way SimulateExchange
// does, initializes it, and returns the heap allocations made by Run alone
// together with the run's result.
func runAllocs(t *testing.T, fc *fault.Config) (uint64, Result) {
	t.Helper()
	cfg := Config{
		Mesh:              mesh.Square(16, true),
		Mode:              FourWay,
		RefreshInterval:   32,
		RandomPairing:     true,
		Threshold:         1.5,
		StopAtConvergence: true,
		Faults:            fc,
	}
	if fc != nil {
		cfg.StopAtConvergence = false
		cfg.MaxCycles = 400_000
	}
	src := rng.New(11)
	n := cfg.Mesh.N()
	maxes := UniformMaxes(n, 32)
	e := NewEmulator(cfg, src)
	e.Init(HotspotAssignment(src, maxes, int64(n)*16))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := e.Run()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, res
}

// The exchange steady state allocates nothing: per-message routing, the
// fault verdict (failed links included) and the 4-way group split all run
// on tables built at construction or at a fault's activation. What Run
// still allocates grows with the run's peak and its audit rounds, not with
// its messages. An allocation profile of the five trials attributes it to:
//
//   - the emulator's message records (a sim.Slots: chunks of 64 addressed
//     by index, the chunk list grown by append, the free list's capacity
//     kept ahead of the record count) (~10);
//   - the kernel's event arena (~10);
//   - the NoC's PM-plane tables, built on the first message (2);
//   - the end-of-run snapshots (4);
//   - hardened runs only: each audit round's candidate list and sort
//     (~65 over the drop trial) and the lazily built far-partner strike
//     maps (~40).
//
// That is 26 (healthy) and 132 (1% drop) allocations; the bounds leave
// 3x headroom for layout changes. They sit three orders of magnitude
// below one allocation per message or per exchange: the healthy trial
// sends ~170,000 messages and the 1%-drop trial ~210,000. The fail-stop
// rows keep that shape: a tile killed or a link failed at cycle 900 (76
// and 198 allocations for ~870,000 and ~710,000 messages), and a 2%
// duplication plan whose copies take message records like any other (85
// for ~600,000). Before failed links were read off the route walk and
// duplicates drawn from a pool, those last two rows allocated ~1.36
// million and ~12,000 objects.
func TestRunSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name  string
		fc    *fault.Config
		bound uint64
	}{
		{"healthy", nil, 100},
		{"drop-1pct", &fault.Config{Seed: 0x5eed, DropRate: 0.01}, 400},
		{"tile-kill", &fault.Config{TileKills: []fault.TileFault{{Tile: 9, At: 900}}}, 400},
		{"link-failure", &fault.Config{LinkFails: []fault.LinkFault{{A: 9, B: 10, At: 900}}}, 400},
		{"dup-2pct", &fault.Config{Seed: 0x5eed, DupRate: 0.02}, 400},
	}
	for _, c := range cases {
		allocs, res := runAllocs(t, c.fc)
		t.Logf("%s: %d allocations in Run for %d packets", c.name, allocs, res.TotalPackets)
		if res.TotalPackets < 10_000 {
			t.Fatalf("%s: only %d packets; the trial no longer exercises the steady state", c.name, res.TotalPackets)
		}
		if allocs > c.bound {
			t.Errorf("%s: Run allocated %d objects for %d packets, bound %d",
				c.name, allocs, res.TotalPackets, c.bound)
		}
	}
}

// One exchange round, 1-way or 4-way (BenchmarkExchangeRound's), allocates
// nothing once warm: its messages reuse the emulator's records and its
// events the kernel's arena.
func TestExchangeRoundAllocatesNothing(t *testing.T) {
	for _, mode := range []Mode{OneWay, FourWay} {
		if a := testing.AllocsPerRun(100, warmRound(mode)); a != 0 {
			t.Errorf("%v round: %v allocations, want 0", mode, a)
		}
	}
}
