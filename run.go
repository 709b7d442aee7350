package blitzcoin

import (
	"context"
	"fmt"
	"strconv"

	"blitzcoin/internal/coin"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/trace"
	"blitzcoin/internal/workload"
)

// Execute runs a Request and returns its Result — the single entry point
// behind the blitzd daemon. Unlike the direct SimulateExchange/RunSoC
// calls, which panic on invalid options, Execute validates first and
// converts any residual panic (e.g. a workload that needs an accelerator
// the platform lacks) into an error, so a serialized request can never
// crash a server. The context cancels exchange sweeps between trials and
// figure sweeps between runs; a cancelled Execute returns ctx.Err()
// rather than a partial result.
//
// Execute also publishes live progress: if the context carries no
// trace.Stream it opens one on the default bus keyed by the request's
// canonical hash and emits the sweep lifecycle (sweep-start, per-trial
// progress, sweep-done/sweep-failed). With no subscribers the publishes
// are single atomic loads — results are byte-identical either way.
func Execute(ctx context.Context, req Request) (res *Result, err error) {
	n := req.Normalized()
	custom, err := n.validate()
	if err != nil {
		return nil, err
	}
	// CanonicalHash of a valid request, without validating it again.
	hash := canonicalHash(string(n.Kind), n)
	if ctx == nil {
		ctx = context.Background()
	}
	if st := trace.FromContext(ctx); !st.Active() {
		st = trace.NewStream(trace.Default(), hash)
		ctx = trace.NewContext(ctx, st)
		units := executeUnits(n)
		// Registered before the recover defer (LIFO), so it observes the
		// panic-converted err and reports sweep-failed for it.
		defer func() {
			if err != nil {
				st.SweepFailed()
			} else {
				st.SweepDone(units)
			}
		}()
		st.SweepStart(units)
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("blitzcoin: %v", p)
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	switch n.Kind {
	case KindExchange:
		sweepRes := runExchangeSweep(ctx, n, hash)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &Result{Kind: KindExchange, Exchange: sweepRes}, nil
	case KindSoC:
		r := runSoC(*n.SoC, trace.FromContext(ctx), hash)
		return &Result{Kind: KindSoC, SoC: &r}, nil
	case KindCustomSoC:
		r := runCustomSoC(custom, trace.FromContext(ctx), hash)
		return &Result{Kind: KindCustomSoC, SoC: &r}, nil
	case KindFigure:
		f, err := RunFigure(ctx, *n.Figure, nil)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f.Meta.OptionsHash = hash
		return &Result{Kind: KindFigure, Figure: &f}, nil
	}
	return nil, fmt.Errorf("blitzcoin: unknown request kind %q", n.Kind)
}

// executeUnits sizes a request for the sweep-start event: trial count for
// exchange sweeps, one unit for single-run kinds.
func executeUnits(n Request) int {
	if n.Kind == KindExchange && n.Trials > 0 {
		return n.Trials
	}
	return 1
}

// runExchangeSweep fans a normalized exchange request out over its trials
// on the shared worker pool and folds the rows in trial order, so the
// aggregate is byte-identical at any parallelism.
func runExchangeSweep(ctx context.Context, n Request, hash string) *ExchangeSweepResult {
	rows := exchangeShardRows(ctx, n, 0, n.Trials)
	return foldExchangeSweep(newMeta(n.Exchange.Seed, hash), n.Trials, rows)
}

// exchangeShardRows computes the trial rows [lo, hi) of a normalized
// exchange request, each trial's seed derived from its global trial index
// (seed + t*7919). The full range reproduces the single-node sweep; a
// sub-range is the shard a cluster worker serves.
func exchangeShardRows(ctx context.Context, n Request, lo, hi int) []ExchangeResult {
	base := *n.Exchange
	st := trace.FromContext(ctx)
	total := n.Trials
	return sweep.MapRange(ctx, lo, hi, 0, func(t int) ExchangeResult {
		st.TrialStart(t, total)
		o := base
		o.Seed = base.Seed + uint64(t)*7919
		r := SimulateExchange(o)
		st.TrialDone(t, total, r.Converged, r.ConvergenceMicros)
		if r.Converged {
			st.Convergence(t, r.ConvergenceMicros)
			st.Point("convergence_micros", uint64(t), r.ConvergenceMicros)
		}
		return r
	})
}

// foldExchangeSweep reduces trial rows (already in trial order) into the
// sweep aggregate. Sharded merges reuse it over concatenated shard rows,
// which keeps clustered aggregates byte-identical to local ones.
func foldExchangeSweep(meta ResultMeta, trials int, rows []ExchangeResult) *ExchangeSweepResult {
	out := &ExchangeSweepResult{
		Meta:   meta,
		Trials: trials,
		Rows:   rows,
	}
	var convMicros, convPackets, exch, finalErr float64
	for _, r := range rows {
		if r.Converged {
			out.Converged++
			convMicros += r.ConvergenceMicros
			convPackets += float64(r.PacketsToConvergence)
			exch += float64(r.Exchanges)
		}
		if r.CoinsConserved {
			out.Conserved++
		}
		finalErr += r.FinalErr
	}
	if out.Converged > 0 {
		out.MeanConvergenceMicros = convMicros / float64(out.Converged)
		out.MeanPacketsToConvergence = convPackets / float64(out.Converged)
		out.MeanExchanges = exch / float64(out.Converged)
	}
	if len(rows) > 0 {
		out.MeanFinalErr = finalErr / float64(len(rows))
	}
	return out
}

// SimulateExchange runs the BlitzCoin coin-exchange algorithm on a
// simulated 2D-mesh NoC and reports its convergence behavior. It panics on
// invalid options (negative dimensions, unknown mode); Validate reports
// the same conditions as an error.
func SimulateExchange(o ExchangeOptions) ExchangeResult {
	o = o.Normalized()
	if err := o.Validate(); err != nil {
		panic(err.Error())
	}

	cfg := coin.Config{
		Mesh:               mesh.Square(o.Dim, o.Torus),
		RefreshInterval:    32,
		DynamicTiming:      o.DynamicTiming,
		RandomPairing:      o.RandomPairing,
		RandomPairingEvery: o.RandomPairingEvery,
		Threshold:          o.Threshold,
		ThermalCap:         o.ThermalCap,
		StopAtConvergence:  true,
		Faults:             o.Faults.toInternal(),
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		cfg.StopAtConvergence = false
		cfg.MaxCycles = 400_000
	}
	switch o.Mode {
	case OneWay:
		cfg.Mode = coin.OneWay
	case FourWay:
		cfg.Mode = coin.FourWay
	}

	src := rng.New(o.Seed)
	n := cfg.Mesh.N()
	var maxes []int64
	if o.AccelTypes > 1 {
		maxes = coin.HeterogeneousMaxes(src, n, o.AccelTypes, o.TargetPerTile/int64(o.AccelTypes)+1)
	} else {
		maxes = coin.UniformMaxes(n, o.TargetPerTile)
	}
	pool := int64(n) * o.CoinsPerTile
	var a coin.Assignment
	switch o.Init {
	case InitRandom:
		a = coin.RandomAssignment(src, maxes, pool)
	case InitUniform:
		a = coin.UniformRandomAssignment(src, maxes)
	case InitHotspot:
		a = coin.HotspotAssignment(src, maxes, pool)
	}

	e := coin.NewEmulator(cfg, src)
	e.Init(a)
	res := e.Run()
	return ExchangeResult{
		Meta:                 newMeta(o.Seed, canonicalHash(string(KindExchange), o)),
		Converged:            res.Converged,
		ConvergenceCycles:    res.ConvergenceCycles,
		ConvergenceMicros:    res.ConvergenceMicros(),
		PacketsToConvergence: res.PacketsToConvergence,
		StartErr:             res.StartErr,
		FinalErr:             res.FinalErr,
		WorstTileErr:         res.WorstTileErr,
		TotalPackets:         res.TotalPackets,
		Exchanges:            res.Exchanges,
		ThermalRejects:       e.ThermalRejects(),
		CoinsConserved:       res.Conserved(),
		Dropped:              res.Dropped,
		Retries:              res.Retries,
		LocksBroken:          res.LocksBroken,
		NeighborsPruned:      res.NbrsPruned,
		TilesDead:            res.TilesDead,
		AuditRepairs:         res.AuditRepairs,
		PoolViolation:        res.PoolViolation,
	}
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name Workload) *workload.Graph {
	switch name {
	case AVParallel:
		return workload.AutonomousVehicleParallel()
	case AVDependent:
		return workload.AutonomousVehicleDependent()
	case CVParallel:
		return workload.ComputerVisionParallel()
	case CVDependent:
		return workload.ComputerVisionDependent()
	case Silicon7:
		return workload.SevenAcceleratorSilicon()
	case Silicon7Par:
		return workload.SevenAcceleratorParallel()
	}
	panic(fmt.Sprintf("blitzcoin: unknown workload %q", name))
}

// lookupScheme resolves a scheme name.
func lookupScheme(s Scheme) soc.Scheme {
	switch s {
	case BC:
		return soc.SchemeBC
	case BCC:
		return soc.SchemeBCC
	case CRR:
		return soc.SchemeCRR
	case TS:
		return soc.SchemeTS
	case PT:
		return soc.SchemePT
	case Static:
		return soc.SchemeStatic
	}
	panic(fmt.Sprintf("blitzcoin: unknown scheme %q", s))
}

// RunSoC executes a workload on a BlitzCoin-enabled SoC simulation and
// reports execution time, PM response times, and power statistics. It
// panics on unknown platform, scheme, or workload names, and on workloads
// that need accelerators the platform lacks; Validate reports the name
// errors as an error.
func RunSoC(o SoCOptions) SoCResult {
	o = o.Normalized()
	if err := o.Validate(); err != nil {
		panic(err.Error())
	}
	return runSoC(o, trace.Stream{}, canonicalHash(string(KindSoC), o))
}

// runSoC runs normalized, valid options, stamping hash on the result's
// Meta. The runner's power recorder mirrors every series point onto the
// live stream's bus; a zero stream is inert.
func runSoC(o SoCOptions, st trace.Stream, hash string) SoCResult {
	scheme := lookupScheme(o.Scheme)

	var cfg soc.Config
	switch o.SoC {
	case "3x3":
		cfg = soc.SoC3x3(o.BudgetMW, scheme, o.Seed)
	case "4x4":
		cfg = soc.SoC4x4(o.BudgetMW, scheme, o.Seed)
	case "6x6":
		cfg = soc.SoC6x6(o.BudgetMW, scheme, o.Seed)
	}
	if o.AbsoluteProportional {
		cfg.Strategy = soc.AbsoluteProportional
	}
	cfg.Faults = o.Faults.toInternal()
	cfg.Stream = st

	g := lookupWorkload(o.Workload)
	if o.Repeat > 1 {
		g = workload.Repeat(g, o.Repeat)
	}
	res := soc.New(cfg).Run(g)
	out := newSoCResult(res)
	out.Meta = newMeta(o.Seed, hash)
	return out
}

// newSoCResult flattens the internal result into the public shape.
func newSoCResult(res soc.Result) SoCResult {
	mean, median := res.ResponseMicros()
	return SoCResult{
		SoC:                  res.SoC,
		Scheme:               res.Scheme,
		Strategy:             res.Strategy,
		Workload:             res.Workload,
		Completed:            res.Completed,
		ExecMicros:           res.ExecMicros(),
		MeanResponseMicros:   mean,
		MedianResponseMicros: median,
		MaxResponseMicros:    res.MaxResponseMicros(),
		ResponsesRecorded:    len(res.Responses),
		AvgPowerMW:           res.AvgPowerMW,
		PeakPowerMW:          res.PeakPowerMW,
		BudgetMW:             res.BudgetMW,
		UtilizationPct:       res.UtilizationPct(),
		ActivityChanges:      res.ActivityChanges,
		TilesKilled:          res.TilesKilled,
		TasksRequeued:        res.TasksRequeued,
		res:                  res,
	}
}

// builtSoC is a custom SoC request assembled into what a run takes: the
// platform and the task graph.
type builtSoC struct {
	cfg soc.Config
	g   *workload.Graph
}

// build assembles the custom platform and workload, reporting the first
// inconsistency. It backs both Validate and Execute, which runs what the
// validation built.
func (o CustomSoCOptions) build() (builtSoC, error) {
	o = o.Normalized()
	if o.W <= 0 || o.H <= 0 {
		return builtSoC{}, fmt.Errorf("blitzcoin: invalid grid %dx%d", o.W, o.H)
	}
	if len(o.Tiles) != o.W*o.H {
		return builtSoC{}, fmt.Errorf("blitzcoin: %d tiles for a %dx%d grid", len(o.Tiles), o.W, o.H)
	}
	if !knownScheme(o.Scheme) {
		return builtSoC{}, fmt.Errorf("blitzcoin: unknown scheme %q", o.Scheme)
	}

	tiles := make([]soc.TileConfig, len(o.Tiles))
	for i, ts := range o.Tiles {
		switch ts.Kind {
		case "cpu":
			tiles[i] = soc.TileConfig{Kind: soc.TileCPU}
		case "mem":
			tiles[i] = soc.TileConfig{Kind: soc.TileMem}
		case "io":
			tiles[i] = soc.TileConfig{Kind: soc.TileIO}
		case "spm":
			tiles[i] = soc.TileConfig{Kind: soc.TileSPM}
		case "accel":
			tiles[i] = soc.TileConfig{Kind: soc.TileAccel, Accel: ts.Accel}
		case "accel-nopm":
			tiles[i] = soc.TileConfig{Kind: soc.TileAccelNoPM, Accel: ts.Accel}
		case "", "empty":
			tiles[i] = soc.TileConfig{Kind: soc.TileEmpty}
		default:
			return builtSoC{}, fmt.Errorf("blitzcoin: tile %d has unknown kind %q", i, ts.Kind)
		}
	}

	cfg := soc.Config{
		Name:     o.Name,
		Mesh:     mesh.New(o.W, o.H, o.Torus),
		Tiles:    tiles,
		BudgetMW: o.BudgetMW,
		Scheme:   lookupScheme(o.Scheme),
		Strategy: soc.RelativeProportional,
		Seed:     o.Seed,
	}
	if o.AbsoluteProportional {
		cfg.Strategy = soc.AbsoluteProportional
	}
	if err := cfg.Validate(); err != nil {
		return builtSoC{}, err
	}

	if len(o.Tasks) == 0 {
		return builtSoC{}, fmt.Errorf("blitzcoin: custom SoC needs at least one task")
	}
	// The graph's dependency lists are windows of one copy of the
	// request's, so the run shares nothing with the caller.
	deps := 0
	for _, t := range o.Tasks {
		deps += len(t.Deps)
	}
	depSlab := make([]int, 0, deps)
	g := &workload.Graph{Name: o.Name + "-workload", Tasks: make([]workload.Task, len(o.Tasks))}
	for i, t := range o.Tasks {
		name := t.Name
		if name == "" {
			name = "task-" + strconv.Itoa(i)
		}
		g.Tasks[i] = workload.Task{ID: i, Name: name, Accel: t.Accel, WorkCycles: t.WorkCycles}
		if len(t.Deps) > 0 {
			from := len(depSlab)
			depSlab = append(depSlab, t.Deps...)
			g.Tasks[i].Deps = depSlab[from:len(depSlab):len(depSlab)]
		}
	}
	if err := g.Validate(); err != nil {
		return builtSoC{}, err
	}
	// Repeat copies the tasks, so the first copy's accelerators are all
	// the chain's.
	for _, task := range g.Tasks {
		found := false
		for _, tc := range tiles {
			if tc.Kind == soc.TileAccel && tc.Accel == task.Accel {
				found = true
				break
			}
		}
		if !found {
			return builtSoC{}, fmt.Errorf("blitzcoin: workload needs accelerator %q, absent from the layout", task.Accel)
		}
	}
	if o.Repeat > 1 {
		g = workload.Repeat(g, o.Repeat)
	}
	return builtSoC{cfg: cfg, g: g}, nil
}

// runCustomSoC runs a custom platform that build assembled, with a live
// stream and options hash as in runSoC; simulation is deterministic for
// the platform's seed.
func runCustomSoC(b builtSoC, st trace.Stream, hash string) SoCResult {
	cfg := b.cfg
	cfg.Stream = st
	out := newSoCResult(soc.New(cfg).Run(b.g))
	out.Meta = newMeta(cfg.Seed, hash)
	return out
}

// RandomWorkload generates a seeded random DAG over the given accelerator
// types, for stress-testing custom platforms.
func RandomWorkload(seed uint64, n int, accels []string, minWork, maxWork float64, maxDeps int) []TaskSpec {
	g := workload.RandomDAG(rng.New(seed), n, accels, minWork, maxWork, maxDeps)
	out := make([]TaskSpec, len(g.Tasks))
	for i, t := range g.Tasks {
		out[i] = TaskSpec{
			Name: t.Name, Accel: t.Accel, WorkCycles: t.WorkCycles,
			Deps: append([]int(nil), t.Deps...),
		}
	}
	return out
}

// toInternal maps the public fault model onto the internal config.
func (o *FaultOptions) toInternal() *fault.Config {
	if o == nil {
		return nil
	}
	fc := &fault.Config{
		Seed:      o.Seed,
		DropRate:  o.DropRate,
		DupRate:   o.DupRate,
		DelayRate: o.DelayRate,
		DelayMax:  sim.Cycles(o.DelayMaxCycles),
	}
	for _, f := range o.KillTiles {
		fc.TileKills = append(fc.TileKills, fault.TileFault{Tile: f.Tile, At: f.AtCycle})
	}
	for _, f := range o.StuckCounters {
		fc.StuckCounters = append(fc.StuckCounters, fault.TileFault{Tile: f.Tile, At: f.AtCycle})
	}
	for _, f := range o.FailSlow {
		fc.SlowTiles = append(fc.SlowTiles, fault.SlowFault{Tile: f.Tile, At: f.AtCycle, Factor: f.Factor})
	}
	for _, f := range o.FailLinks {
		fc.LinkFails = append(fc.LinkFails, fault.LinkFault{A: f.A, B: f.B, At: f.AtCycle})
	}
	return fc
}
