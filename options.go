package blitzcoin

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// API and engine versioning. Every serialized request and result carries
// both, and the content-addressed cache key of the blitzd daemon folds
// EngineVersion in, so cached rows never outlive the simulator semantics
// that produced them.
const (
	// APIVersion names the wire shape of Request/Result. Bumped on
	// incompatible JSON changes.
	APIVersion = "v1"
	// EngineVersion names the simulation semantics. Bumped whenever a
	// change makes equal options produce different rows, invalidating
	// every previously cached result. (4 added the sharding surface:
	// coordinators refuse workers whose engine disagrees, so mixed-version
	// clusters cannot merge rows from different semantics. 5 marks the
	// elastic work-stealing cluster: duplicate-tolerant MergeShards and
	// the speculation/steal knobs then on ClusterOptions. 6 marks the live
	// telemetry surface: ResultMeta gained the LedgerSeq/LedgerRoot
	// provenance fields, so serialized results — and the canonical result
	// SHA the ledger records — differ from engine 5's. 7 marks the figure
	// CSV surface: RunFigureCSV joined the exported API and the deprecated
	// TileFaultAt/LinkFaultAt/SlowFaultAt aliases left it; rows are
	// unchanged. 8 marks ClusterOptions leaving the exported API: the
	// coordinator's settings are internal/cluster's Config (workers, shard
	// count, heartbeat, shard timeout), every other scheduling knob is a
	// fixed constant there, and rows are unchanged.)
	EngineVersion = "8"
)

// RequestKind discriminates the payload of a Request.
type RequestKind string

// The request kinds served by Execute (and the blitzd daemon).
const (
	// KindExchange runs SimulateExchange, Trials times with derived seeds.
	KindExchange RequestKind = "exchange"
	// KindSoC runs RunSoC once.
	KindSoC RequestKind = "soc"
	// KindCustomSoC runs RunCustomSoC once.
	KindCustomSoC RequestKind = "custom-soc"
	// KindFigure reproduces one of the paper's figures or tables.
	KindFigure RequestKind = "figure"
)

// Request is the single versioned entry point of the package: one union
// over everything the simulator can compute, serializable as JSON, with
// explicit defaults (Normalized), explicit validation (Validate), and a
// canonical content hash (CanonicalHash) that the blitzd daemon uses as
// its cache key.
//
// Exactly one of the payload pointers must be set; Kind may be left empty
// and is then inferred from the populated payload.
type Request struct {
	// Version is the API version; empty means APIVersion.
	Version string `json:"version,omitempty"`
	// Kind selects the payload. Optional when unambiguous.
	Kind RequestKind `json:"kind,omitempty"`
	// Trials fans an exchange request out into that many trials with
	// derived seeds (seed + trial*7919), aggregated in the sweep result.
	// Default 1. Ignored by the other kinds.
	Trials int `json:"trials,omitempty"`

	Exchange  *ExchangeOptions  `json:"exchange,omitempty"`
	SoC       *SoCOptions       `json:"soc,omitempty"`
	CustomSoC *CustomSoCOptions `json:"custom_soc,omitempty"`
	Figure    *FigureOptions    `json:"figure,omitempty"`
}

// Normalized returns a deep copy with the API version, the inferred kind,
// and every payload default filled in. Normalization is idempotent:
// n.Normalized() == n for any already-normalized n, which is what makes
// CanonicalHash content-addressed rather than spelling-addressed.
func (r Request) Normalized() Request {
	n := r
	if n.Version == "" {
		n.Version = APIVersion
	}
	if n.Kind == "" {
		switch {
		case n.Exchange != nil:
			n.Kind = KindExchange
		case n.SoC != nil:
			n.Kind = KindSoC
		case n.CustomSoC != nil:
			n.Kind = KindCustomSoC
		case n.Figure != nil:
			n.Kind = KindFigure
		}
	}
	if n.Exchange != nil {
		e := n.Exchange.Normalized()
		n.Exchange = &e
	}
	if n.SoC != nil {
		s := n.SoC.Normalized()
		n.SoC = &s
	}
	if n.CustomSoC != nil {
		c := n.CustomSoC.Normalized()
		n.CustomSoC = &c
	}
	if n.Figure != nil {
		f := n.Figure.Normalized()
		n.Figure = &f
	}
	if n.Kind == KindExchange && n.Trials == 0 {
		n.Trials = 1
	}
	if n.Kind != KindExchange {
		n.Trials = 0
	}
	return n
}

// Validate reports whether the request is executable after normalization:
// a supported version, exactly one payload matching the kind, and valid
// payload options.
func (r Request) Validate() error {
	n := r.Normalized()
	if n.Version != APIVersion {
		return fmt.Errorf("blitzcoin: unsupported API version %q (want %q)", n.Version, APIVersion)
	}
	set := 0
	for _, ok := range []bool{n.Exchange != nil, n.SoC != nil, n.CustomSoC != nil, n.Figure != nil} {
		if ok {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("blitzcoin: request must carry exactly one payload, has %d", set)
	}
	if n.Trials < 0 {
		return fmt.Errorf("blitzcoin: negative trial count %d", r.Trials)
	}
	switch n.Kind {
	case KindExchange:
		if n.Exchange == nil {
			return fmt.Errorf("blitzcoin: kind %q without exchange options", n.Kind)
		}
		return n.Exchange.Validate()
	case KindSoC:
		if n.SoC == nil {
			return fmt.Errorf("blitzcoin: kind %q without soc options", n.Kind)
		}
		return n.SoC.Validate()
	case KindCustomSoC:
		if n.CustomSoC == nil {
			return fmt.Errorf("blitzcoin: kind %q without custom_soc options", n.Kind)
		}
		return n.CustomSoC.Validate()
	case KindFigure:
		if n.Figure == nil {
			return fmt.Errorf("blitzcoin: kind %q without figure options", n.Kind)
		}
		return n.Figure.Validate()
	}
	return fmt.Errorf("blitzcoin: unknown request kind %q", n.Kind)
}

// Seed returns the seed that drives the request's randomness (the
// payload's seed), for result metadata.
func (r Request) seed() uint64 {
	n := r.Normalized()
	switch {
	case n.Exchange != nil:
		return n.Exchange.Seed
	case n.SoC != nil:
		return n.SoC.Seed
	case n.CustomSoC != nil:
		return n.CustomSoC.Seed
	case n.Figure != nil:
		return n.Figure.Seed
	}
	return 0
}

// CanonicalHash returns the content address of the request: a SHA-256 over
// the canonical JSON of the normalized request plus the API and engine
// versions. Two requests that mean the same computation — regardless of
// which defaults were spelled out — hash identically; any request whose
// results could differ hashes differently. It errors on invalid requests,
// which have no canonical meaning.
func (r Request) CanonicalHash() (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	n := r.Normalized()
	return canonicalHash(string(n.Kind), n), nil
}

// canonicalHash is the shared hashing scheme: a domain-separation banner
// (API and engine versions plus the payload kind) followed by the
// deterministic JSON encoding of v. encoding/json emits struct fields in
// declaration order, so equal values encode to equal bytes.
func canonicalHash(kind string, v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "blitzcoin:%s:%s:%s\n", APIVersion, EngineVersion, kind)
	b, err := json.Marshal(v)
	if err != nil {
		// Options structs are plain data; this is unreachable for any
		// value constructible from JSON or literals.
		panic(fmt.Sprintf("blitzcoin: canonical encoding failed: %v", err))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// ExchangeMode selects the exchange technique of Sec. III-B.
type ExchangeMode string

// Exchange techniques.
const (
	OneWay  ExchangeMode = "1-way" // pairwise, round-robin (the preferred embodiment)
	FourWay ExchangeMode = "4-way" // all four neighbors at once
)

// InitDistribution selects the initial coin placement of an exchange
// simulation.
type InitDistribution string

// Initial distributions.
const (
	// InitRandom scatters the pool uniformly at random across tiles.
	InitRandom InitDistribution = "random"
	// InitUniform draws each tile's coins uniformly in [0, max]: per-tile
	// local imbalance.
	InitUniform InitDistribution = "uniform"
	// InitHotspot concentrates the pool in one corner region: the
	// long-range transport case whose convergence shows the O(sqrt(N))
	// scaling.
	InitHotspot InitDistribution = "hotspot"
)

// ExchangeOptions configures SimulateExchange. The zero value is completed
// with the defaults noted per field (see Normalized).
type ExchangeOptions struct {
	// Dim is the mesh dimension d; the SoC has N = Dim*Dim tiles.
	// Default 8.
	Dim int `json:"dim,omitempty"`
	// Torus enables wrap-around neighbors (Sec. III-D). Default as given.
	Torus bool `json:"torus,omitempty"`
	// Mode selects 1-way or 4-way exchange. Default OneWay.
	Mode ExchangeMode `json:"mode,omitempty"`
	// DynamicTiming enables the exponential back-off / acceleration of
	// exchange intervals.
	DynamicTiming bool `json:"dynamic_timing,omitempty"`
	// RandomPairing enables intermittent exchanges with non-neighbors,
	// which eliminates deadlocks (Sec. III-E). Default as given; the
	// paper's experiments enable it.
	RandomPairing bool `json:"random_pairing,omitempty"`
	// RandomPairingEvery is the pairing cadence in exchanges; the paper
	// found once every 16 exchanges sufficient. Default 16.
	RandomPairingEvery int `json:"random_pairing_every,omitempty"`
	// Threshold is the convergence criterion on the mean per-tile error
	// Err. Default 1.5 (Fig. 3).
	Threshold float64 `json:"threshold,omitempty"`
	// Init selects the initial coin placement. Default InitHotspot.
	Init InitDistribution `json:"init,omitempty"`
	// AccelTypes is the number of distinct accelerator types (Fig. 8);
	// 1 means homogeneous. Default 1.
	AccelTypes int `json:"accel_types,omitempty"`
	// TargetPerTile is the mean per-tile coin target. Default 32.
	TargetPerTile int64 `json:"target_per_tile,omitempty"`
	// CoinsPerTile is the mean per-tile pool share. Default
	// TargetPerTile/2.
	CoinsPerTile int64 `json:"coins_per_tile,omitempty"`
	// ThermalCap, when positive, enables the hotspot guard of Sec. III-B:
	// no tile accepts coins that would push its own count plus its
	// neighbors' observed counts above the cap.
	ThermalCap int64 `json:"thermal_cap,omitempty"`
	// Faults, when non-nil and non-empty, injects the given fault model
	// and hardens the protocol against it. Faulted runs go to quiescence
	// (bounded at 400k cycles) instead of stopping at the first threshold
	// crossing, so the result reports the post-audit conservation verdict.
	Faults *FaultOptions `json:"faults,omitempty"`
	// Seed drives all randomness. Runs with equal options and seed are
	// identical.
	Seed uint64 `json:"seed,omitempty"`
}

// DefaultExchangeOptions returns the paper's baseline exchange setup
// (Fig. 3 point, torus, random pairing) with every default spelled out.
func DefaultExchangeOptions() ExchangeOptions {
	return ExchangeOptions{Torus: true, RandomPairing: true}.Normalized()
}

// Normalized returns a copy with every unset field replaced by its
// documented default. Fault options are copied, not shared.
func (o ExchangeOptions) Normalized() ExchangeOptions {
	if o.Dim == 0 {
		o.Dim = 8
	}
	if o.Mode == "" {
		o.Mode = OneWay
	}
	if o.RandomPairingEvery == 0 {
		o.RandomPairingEvery = 16
	}
	if o.Threshold == 0 {
		o.Threshold = 1.5
	}
	if o.Init == "" {
		o.Init = InitHotspot
	}
	if o.AccelTypes == 0 {
		o.AccelTypes = 1
	}
	if o.TargetPerTile == 0 {
		o.TargetPerTile = 32
	}
	if o.CoinsPerTile == 0 {
		o.CoinsPerTile = o.TargetPerTile / 2
	}
	if o.Faults != nil {
		f := o.Faults.clone()
		o.Faults = &f
	}
	return o
}

// Validate reports whether the normalized options describe a runnable
// exchange simulation.
func (o ExchangeOptions) Validate() error {
	o = o.Normalized()
	if o.Dim < 2 {
		return fmt.Errorf("blitzcoin: mesh dimension %d too small", o.Dim)
	}
	if o.Mode != OneWay && o.Mode != FourWay {
		return fmt.Errorf("blitzcoin: unknown exchange mode %q", o.Mode)
	}
	switch o.Init {
	case InitRandom, InitUniform, InitHotspot:
	default:
		return fmt.Errorf("blitzcoin: unknown init distribution %q", o.Init)
	}
	if o.Threshold <= 0 {
		return fmt.Errorf("blitzcoin: non-positive threshold %v", o.Threshold)
	}
	if o.RandomPairingEvery < 1 {
		return fmt.Errorf("blitzcoin: random pairing cadence %d < 1", o.RandomPairingEvery)
	}
	if o.AccelTypes < 1 {
		return fmt.Errorf("blitzcoin: accelerator type count %d < 1", o.AccelTypes)
	}
	if o.TargetPerTile < 1 {
		return fmt.Errorf("blitzcoin: per-tile target %d < 1", o.TargetPerTile)
	}
	if o.CoinsPerTile < 0 {
		return fmt.Errorf("blitzcoin: negative per-tile pool share %d", o.CoinsPerTile)
	}
	if o.ThermalCap < 0 {
		return fmt.Errorf("blitzcoin: negative thermal cap %d", o.ThermalCap)
	}
	return o.Faults.Validate()
}

// Scheme names a power-management scheme for SoC simulations.
type Scheme string

// The implemented schemes.
const (
	BC     Scheme = "BC"     // BlitzCoin: fully decentralized coin exchange
	BCC    Scheme = "BC-C"   // BlitzCoin allocation, centralized controller
	CRR    Scheme = "C-RR"   // centralized round-robin greedy baseline [42]
	TS     Scheme = "TS"     // ring-based TokenSmart [43]
	PT     Scheme = "PT"     // hierarchical price theory [81]
	Static Scheme = "Static" // one-time proportional split, no reallocation
)

// knownScheme reports whether s names an implemented scheme.
func knownScheme(s Scheme) bool {
	switch s {
	case BC, BCC, CRR, TS, PT, Static:
		return true
	}
	return false
}

// Workload names a built-in workload DAG.
type Workload string

// The built-in workloads of the evaluated SoCs (Sec. V-B, Fig. 14).
const (
	// AVParallel: the autonomous-vehicle application with all 3x3-SoC
	// accelerators concurrent (WL-Par).
	AVParallel Workload = "av-parallel"
	// AVDependent: the same application as a dependency DAG (WL-Dep).
	AVDependent Workload = "av-dependent"
	// CVParallel / CVDependent: the 4x4 computer-vision application.
	CVParallel  Workload = "cv-parallel"
	CVDependent Workload = "cv-dependent"
	// Silicon7 / Silicon7Par: the 7-accelerator workload measured on the
	// fabricated 6x6 prototype, dependent and concurrent variants.
	Silicon7    Workload = "silicon-7acc"
	Silicon7Par Workload = "silicon-7acc-par"
)

// knownWorkload reports whether w names a built-in workload.
func knownWorkload(w Workload) bool {
	switch w {
	case AVParallel, AVDependent, CVParallel, CVDependent, Silicon7, Silicon7Par:
		return true
	}
	return false
}

// SoCOptions configures RunSoC. The zero value is completed with the
// defaults noted per field (see Normalized).
type SoCOptions struct {
	// SoC selects the platform: "3x3" (autonomous vehicle), "4x4"
	// (computer vision), or "6x6" (the fabricated prototype with its
	// 10-tile PM cluster). Default "3x3".
	SoC string `json:"soc,omitempty"`
	// Scheme selects the PM scheme. Default BC.
	Scheme Scheme `json:"scheme,omitempty"`
	// BudgetMW is the accelerator power budget. Default: the paper's high
	// budget for the platform (120, 450, or 200 mW).
	BudgetMW float64 `json:"budget_mw,omitempty"`
	// Workload selects the task DAG. Default: the platform's parallel
	// workload.
	Workload Workload `json:"workload,omitempty"`
	// Repeat chains that many frames of the workload back-to-back.
	// Default 3.
	Repeat int `json:"repeat,omitempty"`
	// AbsoluteProportional selects the AP allocation strategy; the
	// default false selects RP, the paper's choice.
	AbsoluteProportional bool `json:"absolute_proportional,omitempty"`
	// Faults, when non-nil and non-empty, injects the given fault model
	// into the SoC: NoC packet faults plus tile kills that fail-stop both
	// a tile's PM datapath and its running task (the task is re-queued on
	// a surviving tile of the same accelerator type). Under the BC scheme
	// the coin-exchange fabric is hardened against the model as well.
	Faults *FaultOptions `json:"faults,omitempty"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// DefaultSoCOptions returns the paper's baseline SoC run (3x3, BC,
// high budget, parallel workload) with every default spelled out.
func DefaultSoCOptions() SoCOptions {
	return SoCOptions{}.Normalized()
}

// socPlatformDefaults maps each platform to its paper budget and parallel
// workload.
var socPlatformDefaults = map[string]struct {
	budgetMW float64
	workload Workload
}{
	"3x3": {120, AVParallel},
	"4x4": {450, CVParallel},
	"6x6": {200, Silicon7Par},
}

// Normalized returns a copy with every unset field replaced by its
// documented default. Unknown platforms are left untouched for Validate
// to report. Fault options are copied, not shared.
func (o SoCOptions) Normalized() SoCOptions {
	if o.SoC == "" {
		o.SoC = "3x3"
	}
	if o.Scheme == "" {
		o.Scheme = BC
	}
	if o.Repeat == 0 {
		o.Repeat = 3
	}
	if d, ok := socPlatformDefaults[o.SoC]; ok {
		if o.BudgetMW == 0 {
			o.BudgetMW = d.budgetMW
		}
		if o.Workload == "" {
			o.Workload = d.workload
		}
	}
	if o.Faults != nil {
		f := o.Faults.clone()
		o.Faults = &f
	}
	return o
}

// Validate reports whether the normalized options describe a runnable SoC
// simulation. Workload/platform accelerator mismatches surface from the
// run itself, not here.
func (o SoCOptions) Validate() error {
	o = o.Normalized()
	if _, ok := socPlatformDefaults[o.SoC]; !ok {
		return fmt.Errorf("blitzcoin: unknown SoC %q", o.SoC)
	}
	if !knownScheme(o.Scheme) {
		return fmt.Errorf("blitzcoin: unknown scheme %q", o.Scheme)
	}
	if !knownWorkload(o.Workload) {
		return fmt.Errorf("blitzcoin: unknown workload %q", o.Workload)
	}
	if o.BudgetMW <= 0 {
		return fmt.Errorf("blitzcoin: non-positive budget %v mW", o.BudgetMW)
	}
	if o.Repeat < 1 {
		return fmt.Errorf("blitzcoin: repeat count %d < 1", o.Repeat)
	}
	return o.Faults.Validate()
}

// TileSpec places one tile on a custom SoC grid. Kind is one of "cpu",
// "mem", "io", "spm", "accel", or "accel-nopm"; Accel names the
// accelerator type for the accel kinds (FFT, Viterbi, NVDLA, GEMM, Conv2D,
// Vision).
type TileSpec struct {
	Kind  string `json:"kind,omitempty"`
	Accel string `json:"accel,omitempty"`
}

// TaskSpec is one task of a custom workload DAG. Deps index earlier tasks.
type TaskSpec struct {
	Name       string  `json:"name,omitempty"`
	Accel      string  `json:"accel"`
	WorkCycles float64 `json:"work_cycles"`
	Deps       []int   `json:"deps,omitempty"`
}

// CustomSoCOptions describes a user-defined platform and workload: lay out
// any WxH grid of tiles, supply any DAG over the modeled accelerators, and
// run it under any of the implemented PM schemes. This is the
// build-your-own entry point a downstream user starts from when their SoC
// is not one of the paper's three.
type CustomSoCOptions struct {
	Name string `json:"name,omitempty"`
	// W, H are the grid dimensions; Tiles lists W*H tile placements in
	// row-major order.
	W     int        `json:"w"`
	H     int        `json:"h"`
	Tiles []TileSpec `json:"tiles"`
	// Torus enables wrap-around neighbor semantics (the paper's choice).
	Torus bool `json:"torus,omitempty"`

	BudgetMW float64 `json:"budget_mw"`
	Scheme   Scheme  `json:"scheme,omitempty"`
	// AbsoluteProportional selects AP allocation; default is RP.
	AbsoluteProportional bool `json:"absolute_proportional,omitempty"`

	// Tasks defines the workload; Repeat chains frames (default 1).
	Tasks  []TaskSpec `json:"tasks"`
	Repeat int        `json:"repeat,omitempty"`

	Seed uint64 `json:"seed,omitempty"`
}

// Normalized returns a copy with the documented defaults filled in.
func (o CustomSoCOptions) Normalized() CustomSoCOptions {
	if o.Name == "" && o.W > 0 && o.H > 0 {
		o.Name = fmt.Sprintf("custom-%dx%d", o.W, o.H)
	}
	if o.Scheme == "" {
		o.Scheme = BC
	}
	if o.Repeat == 0 {
		o.Repeat = 1
	}
	return o
}

// Validate reports whether the layout and workload assemble into a
// runnable platform: grid and tile list consistent, tile kinds and
// accelerators known, the DAG acyclic, and every task's accelerator
// present in the layout.
func (o CustomSoCOptions) Validate() error {
	_, _, err := o.build()
	return err
}

// FaultOptions declares a deterministic fault model for a simulation: random
// per-packet faults on the PM plane (drop, duplicate, delay) plus scheduled
// structural faults (tile fail-stop, stuck coin counters, fail-slow tiles,
// fail-stop links). The zero value injects nothing. Supplying a non-nil
// enabled model automatically hardens the exchange protocol — timeouts with
// retry, lock watchdog, dead-neighbor pruning, and a periodic coin-
// conservation audit — so the run survives the injected damage. A given
// (FaultOptions, Seed) pair reproduces a bit-identical fault schedule.
type FaultOptions struct {
	// Seed drives the per-packet random faults, independently of the
	// simulation seed.
	Seed uint64 `json:"seed,omitempty"`
	// DropRate, DupRate and DelayRate are per-packet probabilities on the
	// PM plane (plane 5).
	DropRate  float64 `json:"drop_rate,omitempty"`
	DupRate   float64 `json:"dup_rate,omitempty"`
	DelayRate float64 `json:"delay_rate,omitempty"`
	// DelayMaxCycles bounds the extra delivery delay; 0 selects 64 cycles.
	DelayMaxCycles uint64 `json:"delay_max_cycles,omitempty"`

	// KillTiles fail-stops tiles: the tile's PM logic dies and packets
	// addressed to it vanish.
	KillTiles []TileFault `json:"kill_tiles,omitempty"`
	// StuckCounters freeze tiles' coin registers, silently leaking or
	// duplicating coins until the conservation audit repairs the pool.
	StuckCounters []TileFault `json:"stuck_counters,omitempty"`
	// FailSlow stretches tiles' exchange cadence by a factor.
	FailSlow []SlowFault `json:"fail_slow,omitempty"`
	// FailLinks fail-stops mesh links.
	FailLinks []LinkFault `json:"fail_links,omitempty"`
}

// TileFault schedules a per-tile fault activation at an absolute
// simulation time in NoC cycles.
type TileFault struct {
	Tile    int    `json:"tile"`
	AtCycle uint64 `json:"at_cycle,omitempty"`
}

// LinkFault schedules a fail-stop of the mesh link between two adjacent
// tiles; both directions fail.
type LinkFault struct {
	A       int    `json:"a"`
	B       int    `json:"b"`
	AtCycle uint64 `json:"at_cycle,omitempty"`
}

// SlowFault schedules a fail-slow activation: from AtCycle on, the
// tile's exchange FSM runs Factor (> 1) times slower.
type SlowFault struct {
	Tile    int     `json:"tile"`
	AtCycle uint64  `json:"at_cycle,omitempty"`
	Factor  float64 `json:"factor"`
}

// clone returns a deep copy so normalization never aliases the caller's
// schedule slices.
func (o FaultOptions) clone() FaultOptions {
	o.KillTiles = append([]TileFault(nil), o.KillTiles...)
	o.StuckCounters = append([]TileFault(nil), o.StuckCounters...)
	o.FailSlow = append([]SlowFault(nil), o.FailSlow...)
	o.FailLinks = append([]LinkFault(nil), o.FailLinks...)
	return o
}

// Validate reports whether the fault model is well-formed: probabilities
// in [0,1], slow-down factors above 1, non-negative tile indices, and
// links between distinct tiles. A nil model is valid (no injection).
func (o *FaultOptions) Validate() error {
	if o == nil {
		return nil
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", o.DropRate}, {"dup", o.DupRate}, {"delay", o.DelayRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("blitzcoin: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	for _, f := range o.KillTiles {
		if f.Tile < 0 {
			return fmt.Errorf("blitzcoin: negative kill-tile index %d", f.Tile)
		}
	}
	for _, f := range o.StuckCounters {
		if f.Tile < 0 {
			return fmt.Errorf("blitzcoin: negative stuck-counter tile index %d", f.Tile)
		}
	}
	for _, f := range o.FailSlow {
		if f.Tile < 0 {
			return fmt.Errorf("blitzcoin: negative fail-slow tile index %d", f.Tile)
		}
		if f.Factor <= 1 {
			return fmt.Errorf("blitzcoin: fail-slow factor %v must exceed 1", f.Factor)
		}
	}
	for _, f := range o.FailLinks {
		if f.A < 0 || f.B < 0 || f.A == f.B {
			return fmt.Errorf("blitzcoin: invalid link fault %d-%d", f.A, f.B)
		}
	}
	return nil
}
