// Package soc assembles full BlitzCoin-enabled systems-on-chip and runs
// workloads on them — the Go equivalent of the paper's full-SoC RTL
// simulations (Sec. V) and silicon measurements (Sec. VI-C).
//
// A SoC is a mesh of tiles (CPU, memory, I/O, and accelerator tiles, as in
// the ESP architecture of Fig. 12), a multi-plane NoC, one power-management
// scheme (BlitzCoin or a baseline controller), and a UVFR regulator per
// managed accelerator tile. The harness executes a workload DAG, driving
// activity changes into the PM scheme and integrating each tile's
// time-varying frequency into task progress and power traces.
package soc

import (
	"fmt"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/power"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/trace"
)

// TileKind classifies a tile in the grid (the four ESP tile types of
// Sec. IV-B, plus the scratchpad and unmanaged-accelerator tiles of the
// fabricated 6x6 SoC).
type TileKind int

// Tile kinds.
const (
	TileEmpty TileKind = iota
	TileCPU
	TileMem
	TileIO
	TileAccel     // accelerator under BlitzCoin power management
	TileAccelNoPM // accelerator outside the PM cluster (runs at nominal)
	TileSPM       // scratchpad memory tile
)

// String names the tile kind.
func (k TileKind) String() string {
	switch k {
	case TileEmpty:
		return "empty"
	case TileCPU:
		return "CPU"
	case TileMem:
		return "MEM"
	case TileIO:
		return "IO"
	case TileAccel:
		return "ACC"
	case TileAccelNoPM:
		return "ACC-noPM"
	case TileSPM:
		return "SPM"
	}
	return fmt.Sprintf("TileKind(%d)", int(k))
}

// TileConfig describes one grid position.
type TileConfig struct {
	Kind  TileKind
	Accel string // accelerator type for TileAccel/TileAccelNoPM
}

// Scheme selects the power-management scheme under test.
type Scheme int

// The evaluated schemes.
const (
	SchemeBC Scheme = iota // BlitzCoin: fully decentralized coin exchange
	SchemeBCC
	SchemeCRR
	SchemeTS
	SchemePT
	SchemeStatic
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case SchemeBC:
		return "BC"
	case SchemeBCC:
		return "BC-C"
	case SchemeCRR:
		return "C-RR"
	case SchemeTS:
		return "TS"
	case SchemePT:
		return "PT"
	case SchemeStatic:
		return "Static"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Strategy selects the power-allocation strategy (Sec. V-B).
type Strategy int

const (
	// AbsoluteProportional (AP) assigns every tile the same power target.
	AbsoluteProportional Strategy = iota
	// RelativeProportional (RP) assigns each tile a target proportional to
	// its power at Fmax — the workload-aware strategy the paper adopts
	// after showing it beats AP by 3.0-4.1% (Sec. VI-A).
	RelativeProportional
)

// String names the strategy.
func (s Strategy) String() string {
	if s == AbsoluteProportional {
		return "AP"
	}
	return "RP"
}

// Config describes one SoC-plus-experiment configuration.
type Config struct {
	Name  string
	Mesh  mesh.Mesh
	Tiles []TileConfig // len == Mesh.N()

	// BudgetMW is the accelerator power budget the scheme enforces.
	BudgetMW float64
	// Scheme is the PM scheme under test.
	Scheme Scheme
	// Strategy is the allocation strategy (AP or RP).
	Strategy Strategy
	// Seed drives all randomized behavior.
	Seed uint64

	// MaxCycles bounds a run; zero selects 80M cycles (100 ms).
	MaxCycles sim.Cycles

	// Faults, when non-nil and enabled, injects the given fault model into
	// the SoC: NoC-level packet faults plus tile kills that fail-stop both
	// the tile's PM datapath and its running task (the task is re-queued
	// onto a surviving tile of the same accelerator type). Under SchemeBC
	// the coin-exchange fabric is hardened as well, so the survivors'
	// budget is re-enforced by the audit; the centralized baselines have no
	// recovery machinery and degrade as their protocols allow.
	Faults *fault.Config

	// Stream, when active, mirrors the runner's power-trace recordings
	// onto a trace bus as live series points. The zero Stream is inert and
	// costs one nil check per Record — the run itself is unaffected either
	// way.
	Stream trace.Stream
}

// Validate checks structural consistency.
func (c *Config) Validate() error {
	if c.Mesh.N() == 0 {
		return fmt.Errorf("soc %s: empty mesh", c.Name)
	}
	if len(c.Tiles) != c.Mesh.N() {
		return fmt.Errorf("soc %s: %d tile configs for %d positions", c.Name, len(c.Tiles), c.Mesh.N())
	}
	if c.BudgetMW <= 0 {
		return fmt.Errorf("soc %s: non-positive budget", c.Name)
	}
	accels := 0
	for i, t := range c.Tiles {
		if t.Kind == TileAccel || t.Kind == TileAccelNoPM {
			if power.Lookup(t.Accel) == nil {
				return fmt.Errorf("soc %s: tile %d has unknown accelerator %q", c.Name, i, t.Accel)
			}
			if t.Kind == TileAccel {
				accels++
			}
		}
	}
	if accels == 0 {
		return fmt.Errorf("soc %s: no managed accelerator tiles", c.Name)
	}
	return nil
}

// AccelTiles returns the mesh indices of managed accelerator tiles in
// index order, in one allocation.
func (c *Config) AccelTiles() []int {
	n := 0
	for _, t := range c.Tiles {
		if t.Kind == TileAccel {
			n++
		}
	}
	out := make([]int, 0, n)
	for i, t := range c.Tiles {
		if t.Kind == TileAccel {
			out = append(out, i)
		}
	}
	return out
}

// CPUTile returns the first CPU tile's index (the controller location for
// centralized schemes), or 0 if none.
func (c *Config) CPUTile() int {
	for i, t := range c.Tiles {
		if t.Kind == TileCPU {
			return i
		}
	}
	return 0
}

// CombinedPMaxMW returns the summed maximum power of the managed
// accelerator tiles — the reference the paper's budget percentages are
// quoted against.
func (c *Config) CombinedPMaxMW() float64 {
	var total float64
	for _, t := range c.Tiles {
		if t.Kind == TileAccel {
			total += power.Lookup(t.Accel).PMax()
		}
	}
	return total
}

// SoC3x3 returns the 3x3-tile autonomous-vehicle SoC of Fig. 12: 3 FFT, 2
// Viterbi, and 1 NVDLA accelerator tiles plus CPU, memory, and I/O tiles.
// The budget (120 or 60 mW in the paper) is supplied by the caller.
func SoC3x3(budgetMW float64, scheme Scheme, seed uint64) Config {
	return Config{
		Name: "soc-3x3",
		Mesh: mesh.New(3, 3, true),
		Tiles: []TileConfig{
			{Kind: TileCPU},
			{Kind: TileAccel, Accel: "FFT"},
			{Kind: TileAccel, Accel: "FFT"},
			{Kind: TileAccel, Accel: "Viterbi"},
			{Kind: TileAccel, Accel: "NVDLA"},
			{Kind: TileAccel, Accel: "Viterbi"},
			{Kind: TileMem},
			{Kind: TileAccel, Accel: "FFT"},
			{Kind: TileIO},
		},
		BudgetMW: budgetMW,
		Scheme:   scheme,
		Strategy: RelativeProportional,
		Seed:     seed,
	}
}

// SoC4x4 returns the 4x4-tile computer-vision SoC of Fig. 12: 13
// accelerator tiles (4 Vision, 5 GEMM, 4 Conv2D) plus CPU, memory, and I/O.
// The paper evaluates budgets of 450 and 900 mW.
func SoC4x4(budgetMW float64, scheme Scheme, seed uint64) Config {
	tiles := []TileConfig{
		{Kind: TileCPU},
		{Kind: TileAccel, Accel: "Vision"},
		{Kind: TileAccel, Accel: "GEMM"},
		{Kind: TileAccel, Accel: "Conv2D"},
		{Kind: TileAccel, Accel: "GEMM"},
		{Kind: TileAccel, Accel: "Vision"},
		{Kind: TileAccel, Accel: "Conv2D"},
		{Kind: TileAccel, Accel: "GEMM"},
		{Kind: TileMem},
		{Kind: TileAccel, Accel: "Conv2D"},
		{Kind: TileAccel, Accel: "Vision"},
		{Kind: TileAccel, Accel: "GEMM"},
		{Kind: TileAccel, Accel: "Conv2D"},
		{Kind: TileAccel, Accel: "Vision"},
		{Kind: TileAccel, Accel: "GEMM"},
		{Kind: TileIO},
	}
	return Config{
		Name:     "soc-4x4",
		Mesh:     mesh.New(4, 4, true),
		Tiles:    tiles,
		BudgetMW: budgetMW,
		Scheme:   scheme,
		Strategy: RelativeProportional,
		Seed:     seed,
	}
}

// SoC6x6 returns the fabricated 64 mm^2 silicon prototype (Sec. V-D,
// Fig. 15): a 6x6 grid with a 10-tile PM cluster (1 NVDLA, 3 FFT, 6
// Viterbi) running BlitzCoin, 4 CVA6 CPU tiles, 1 I/O tile, 4 memory tiles,
// 4 scratchpad tiles, 8 unmanaged accelerator tiles, and an FFT tile
// without power management that serves as the overhead baseline.
func SoC6x6(budgetMW float64, scheme Scheme, seed uint64) Config {
	tiles := make([]TileConfig, 36)
	// PM cluster occupies the top-left 10 positions (rows 0-1 plus two).
	pm := []TileConfig{
		{Kind: TileAccel, Accel: "NVDLA"},
		{Kind: TileAccel, Accel: "FFT"},
		{Kind: TileAccel, Accel: "FFT"},
		{Kind: TileAccel, Accel: "FFT"},
		{Kind: TileAccel, Accel: "Viterbi"},
		{Kind: TileAccel, Accel: "Viterbi"},
		{Kind: TileAccel, Accel: "Viterbi"},
		{Kind: TileAccel, Accel: "Viterbi"},
		{Kind: TileAccel, Accel: "Viterbi"},
		{Kind: TileAccel, Accel: "Viterbi"},
	}
	copy(tiles, pm)
	// The rest of the chip.
	rest := []TileConfig{
		{Kind: TileCPU}, {Kind: TileCPU}, {Kind: TileCPU}, {Kind: TileCPU},
		{Kind: TileIO},
		{Kind: TileMem}, {Kind: TileMem}, {Kind: TileMem}, {Kind: TileMem},
		{Kind: TileSPM}, {Kind: TileSPM}, {Kind: TileSPM}, {Kind: TileSPM},
		{Kind: TileAccelNoPM, Accel: "FFT"}, // the FFT No-PM baseline tile
		{Kind: TileAccelNoPM, Accel: "GEMM"},
		{Kind: TileAccelNoPM, Accel: "Conv2D"},
		{Kind: TileAccelNoPM, Accel: "Vision"},
		{Kind: TileAccelNoPM, Accel: "GEMM"},
		{Kind: TileAccelNoPM, Accel: "Conv2D"},
		{Kind: TileAccelNoPM, Accel: "Vision"},
		{Kind: TileAccelNoPM, Accel: "GEMM"},
		{Kind: TileSPM}, {Kind: TileSPM},
		{Kind: TileMem}, {Kind: TileMem},
		{Kind: TileCPU},
	}
	copy(tiles[10:], rest)
	return Config{
		Name:     "soc-6x6-silicon",
		Mesh:     mesh.New(6, 6, true),
		Tiles:    tiles,
		BudgetMW: budgetMW,
		Scheme:   scheme,
		Strategy: RelativeProportional,
		Seed:     seed,
	}
}
