package coin

import (
	"testing"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/rng"
)

// Native fuzz targets: the seed corpus runs under plain `go test`; run with
// `go test -fuzz=FuzzPairSplit ./internal/coin` to explore further.

func FuzzPairSplit(f *testing.F) {
	f.Add(int64(3), int64(8), int64(5), int64(4))
	f.Add(int64(0), int64(0), int64(0), int64(0))
	f.Add(int64(-3), int64(4), int64(9), int64(4))
	f.Add(int64(1<<20), int64(63), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, hasI, maxI, hasJ, maxJ int64) {
		// Constrain to the domain PairSplit promises to handle: any has
		// (including transient negatives), non-negative max, and products
		// that fit int64 (the hardware works in 7-bit registers; the
		// emulator's headroom is vastly larger but not unbounded).
		if maxI < 0 || maxJ < 0 || maxI > 1<<20 || maxJ > 1<<20 {
			t.Skip()
		}
		if hasI > 1<<30 || hasI < -(1<<30) || hasJ > 1<<30 || hasJ < -(1<<30) {
			t.Skip()
		}
		newI, newJ := PairSplit(hasI, maxI, hasJ, maxJ)
		if newI+newJ != hasI+hasJ {
			t.Fatalf("conservation broken: (%d,%d) -> (%d,%d)", hasI, hasJ, newI, newJ)
		}
		// Inactive tiles never end up holding coins after an exchange
		// with an active partner.
		if maxI == 0 && maxJ > 0 && newI != 0 {
			t.Fatalf("inactive tile kept %d coins", newI)
		}
	})
}

// FuzzFaultChurn drives a hardened emulator through an arbitrary interleaving
// of fault injection (drops, duplicates, tile kills, link failures, a stuck
// register) and SetMax target churn, and checks the self-healing invariants
// the recovery machinery promises: whatever the schedule, the run ends with
// the coin pool exactly conserved (after audit repair) and with no tile
// stranded busy or locked.
func FuzzFaultChurn(f *testing.F) {
	f.Add(uint16(1), []byte{0x10, 0x80, 0xF3, 0x22})
	f.Add(uint16(7), []byte{})
	f.Add(uint16(42), []byte{9, 200, 33, 121, 7, 54, 255, 0})
	f.Add(uint16(1000), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Fuzz(func(t *testing.T, seed uint16, script []byte) {
		if len(script) > 24 {
			script = script[:24] // bound the run length
		}
		cfg := baseConfig(4)
		if seed%2 == 1 {
			cfg.Mode = FourWay
		}
		cfg.MaxCycles = 150_000
		n := cfg.Mesh.N()
		fc := &fault.Config{
			Seed:     uint64(seed) + 1,
			DropRate: float64(seed%8) / 200, // 0 .. 3.5%
			DupRate:  float64(seed%5) / 200, // 0 .. 2%
		}
		// Derive a bounded structural-fault schedule from the script: at most
		// two kills, two link failures, and one stuck register, so most of
		// the mesh survives and the audit always has repair candidates.
		var kills, links int
		for i, b := range script {
			at := 100 + 150*uint64(i) + uint64(b)
			tile := int(b) % n
			switch {
			case i%5 == 1 && kills < 2:
				fc.TileKills = append(fc.TileKills, fault.TileFault{Tile: tile, At: at})
				kills++
			case i%5 == 3 && links < 2:
				fc.LinkFails = append(fc.LinkFails, fault.LinkFault{A: tile, B: (tile + 1) % n, At: at})
				links++
			case i == 10:
				fc.StuckCounters = []fault.TileFault{{Tile: tile, At: at}}
			}
		}
		cfg.Faults = fc
		// The script can derive an all-zero fault config; force hardening on
		// so the no-stranded-flags guarantee (which only hardened runs make)
		// is always under test.
		cfg.Harden = true

		src := rng.New(uint64(seed) + 1)
		e := NewEmulator(cfg, src)
		e.Init(RandomAssignment(src, UniformMaxes(n, 16), int64(n)*8))
		for _, b := range script {
			e.SetMax(int(b)%n, int64(b>>3)%32)
			// Let the fabric (and any armed faults) react for a slice.
			e.Kernel().Run(e.Kernel().Now() + 32 + uint64(b)*3)
		}
		res := e.Run()
		if !res.Conserved() {
			t.Fatalf("pool not repaired: violation=%d (%+v)", res.PoolViolation, res)
		}
		if busy, locked := e.busyCount, e.lockedCount; busy != 0 || locked != 0 {
			t.Fatalf("stranded flags at quiescence: busy=%d locked=%d (%+v)", busy, locked, res)
		}
	})
}

func FuzzGroupSplit(f *testing.F) {
	f.Add(int64(3), int64(5), int64(0), int64(8), int64(4), int64(8), int64(4), int64(4), int64(4), int64(4))
	f.Add(int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, h0, h1, h2, h3, h4, m0, m1, m2, m3, m4 int64) {
		has := []int64{h0, h1, h2, h3, h4}
		max := []int64{m0, m1, m2, m3, m4}
		var total int64
		for i := range has {
			if max[i] < 0 || max[i] > 1<<16 {
				t.Skip()
			}
			if has[i] > 1<<24 || has[i] < -(1<<24) {
				t.Skip()
			}
			total += has[i]
		}
		out := groupSplitOf(has, max)
		var got int64
		for i, v := range out {
			got += v
			if max[i] == 0 && v != 0 {
				// Inactive tiles receive nothing; their input either
				// stayed (all-inactive case) or flowed out.
				allInactive := true
				for _, m := range max {
					if m > 0 {
						allInactive = false
					}
				}
				if !allInactive {
					t.Fatalf("inactive tile %d assigned %d", i, v)
				}
			}
		}
		if got != total {
			t.Fatalf("conservation broken: %d -> %d", total, got)
		}
	})
}
