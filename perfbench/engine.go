package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"blitzcoin"
	"blitzcoin/internal/coin"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/mesh"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/soc"
	"blitzcoin/internal/sweep"
	"blitzcoin/internal/workload"
)

// mix derives a seed for one generated input from the run seed and the
// input's coordinates (splitmix64 over the words), so inputs depend on the
// seed and their position only — never on time or on the code under test.
func mix(words ...uint64) uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, w := range words {
		h ^= w + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		z := h
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		h = z ^ (z >> 31)
	}
	return h
}

// exShape is one request shape of the exchange sweep: a Sec. III Monte
// Carlo point, repeated copies times per block with fresh seeds.
type exShape struct {
	dim     int
	mode    blitzcoin.ExchangeMode
	init    blitzcoin.InitDistribution
	types   int
	dynamic bool
	drop    float64
	trials  int
	copies  int
}

// exchangeShapes is one block of the exchange sweep. 4-way random pairing
// spans d = 8..32 over the three initial distributions and 1 or 4
// accelerator types (Figs. 6-8); 1-way with static and dynamic timing
// runs at d = 8, where it converges (Fig. 3); one shape drops 1% of
// PM-plane packets and runs the hardened protocol. The 1-way requests are
// four fifths of the block, so the median request sits inside them;
// d = 32 uniform is the heaviest and holds the p99.
var exchangeShapes = []exShape{
	{dim: 8, mode: blitzcoin.FourWay, init: blitzcoin.InitHotspot, types: 1, trials: 2, copies: 1},
	{dim: 8, mode: blitzcoin.FourWay, init: blitzcoin.InitRandom, types: 4, trials: 2, copies: 1},
	{dim: 8, mode: blitzcoin.FourWay, init: blitzcoin.InitUniform, types: 1, trials: 2, copies: 1},
	{dim: 16, mode: blitzcoin.FourWay, init: blitzcoin.InitHotspot, types: 4, trials: 2, copies: 1},
	{dim: 16, mode: blitzcoin.FourWay, init: blitzcoin.InitRandom, types: 1, trials: 2, copies: 1},
	{dim: 16, mode: blitzcoin.FourWay, init: blitzcoin.InitUniform, types: 4, trials: 2, copies: 1},
	{dim: 24, mode: blitzcoin.FourWay, init: blitzcoin.InitRandom, types: 4, trials: 2, copies: 1},
	{dim: 24, mode: blitzcoin.FourWay, init: blitzcoin.InitUniform, types: 1, trials: 2, copies: 1},
	{dim: 32, mode: blitzcoin.FourWay, init: blitzcoin.InitRandom, types: 1, trials: 2, copies: 1},
	{dim: 32, mode: blitzcoin.FourWay, init: blitzcoin.InitUniform, types: 4, trials: 2, copies: 2},
	{dim: 8, mode: blitzcoin.FourWay, init: blitzcoin.InitHotspot, types: 1, drop: 0.01, trials: 2, copies: 1},
	{dim: 8, mode: blitzcoin.OneWay, init: blitzcoin.InitHotspot, types: 1, trials: 2, copies: 24},
	{dim: 8, mode: blitzcoin.OneWay, init: blitzcoin.InitHotspot, types: 1, dynamic: true, trials: 2, copies: 24},
}

func (s exShape) request(seed uint64) blitzcoin.Request {
	o := &blitzcoin.ExchangeOptions{
		Dim: s.dim, Torus: true, Mode: s.mode, DynamicTiming: s.dynamic,
		RandomPairing: true, Init: s.init, AccelTypes: s.types, Seed: seed,
	}
	if s.drop > 0 {
		o.Faults = &blitzcoin.FaultOptions{Seed: seed ^ 0x5eed, DropRate: s.drop}
	}
	return blitzcoin.Request{Trials: s.trials, Exchange: o}
}

// exchangeBlock returns block b of the exchange sweep for a run seed.
func exchangeBlock(seed uint64, b int) []blitzcoin.Request {
	var out []blitzcoin.Request
	for i, s := range exchangeShapes {
		for c := 0; c < s.copies; c++ {
			out = append(out, s.request(mix(seed, 1, uint64(b), uint64(i), uint64(c))))
		}
	}
	return out
}

// socBlock returns block b of the SoC sweep: every platform with each of
// its two built-in workloads under all six schemes and both allocation
// strategies, plus custom platforms running seeded random DAGs. The order
// is shuffled by the seed so the callers interleave heavy and light runs.
func socBlock(seed uint64, b int) []blitzcoin.Request {
	platforms := []struct {
		name string
		wls  []blitzcoin.Workload
	}{
		{"3x3", []blitzcoin.Workload{blitzcoin.AVParallel, blitzcoin.AVDependent}},
		{"4x4", []blitzcoin.Workload{blitzcoin.CVParallel, blitzcoin.CVDependent}},
		{"6x6", []blitzcoin.Workload{blitzcoin.Silicon7Par, blitzcoin.Silicon7}},
	}
	schemes := []blitzcoin.Scheme{blitzcoin.BC, blitzcoin.BCC, blitzcoin.CRR, blitzcoin.TS, blitzcoin.PT, blitzcoin.Static}
	var out []blitzcoin.Request
	k := uint64(0)
	for _, p := range platforms {
		for _, wl := range p.wls {
			for _, sc := range schemes {
				for _, ap := range []bool{false, true} {
					k++
					out = append(out, blitzcoin.Request{SoC: &blitzcoin.SoCOptions{
						SoC: p.name, Scheme: sc, Workload: wl, AbsoluteProportional: ap,
						Seed: mix(seed, 2, uint64(b), k),
					}})
				}
			}
		}
	}
	for i, sc := range schemes {
		s := mix(seed, 3, uint64(b), uint64(i))
		out = append(out, blitzcoin.Request{CustomSoC: customSoC(s, sc)})
	}
	r := rand.New(rand.NewSource(int64(mix(seed, 4, uint64(b)) >> 1)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// customAccels are the accelerator types of the custom platform.
var customAccels = []string{"FFT", "Viterbi", "GEMM", "Conv2D"}

// randomDAG is a seeded random task graph in the shape
// blitzcoin.RandomWorkload produces (n tasks over the given accelerators,
// work in [minWork, maxWork) cycles, up to maxDeps edges to earlier
// tasks). It is the benchmark's own, so the inputs stay fixed when the
// program's generator changes.
func randomDAG(seed uint64, n int, accels []string, minWork, maxWork float64, maxDeps int) []blitzcoin.TaskSpec {
	r := rand.New(rand.NewSource(int64(seed >> 1)))
	tasks := make([]blitzcoin.TaskSpec, n)
	for i := range tasks {
		t := blitzcoin.TaskSpec{
			Name:       fmt.Sprintf("t%d", i),
			Accel:      accels[r.Intn(len(accels))],
			WorkCycles: math.Round(minWork + r.Float64()*(maxWork-minWork)),
		}
		if i > 0 {
			for d := r.Intn(maxDeps + 1); d > 0; d-- {
				if dep := r.Intn(i); !slices.Contains(t.Deps, dep) {
					t.Deps = append(t.Deps, dep)
				}
			}
		}
		tasks[i] = t
	}
	return tasks
}

// customSoC is a 4x4 torus with a CPU, a memory and an I/O tile and 13
// accelerators of four types, running a seeded random DAG.
func customSoC(seed uint64, scheme blitzcoin.Scheme) *blitzcoin.CustomSoCOptions {
	tiles := []blitzcoin.TileSpec{{Kind: "cpu"}, {Kind: "mem"}, {Kind: "io"}}
	for i := 0; len(tiles) < 16; i++ {
		tiles = append(tiles, blitzcoin.TileSpec{Kind: "accel", Accel: customAccels[i%len(customAccels)]})
	}
	return &blitzcoin.CustomSoCOptions{
		Name: "bench-4x4", W: 4, H: 4, Tiles: tiles, Torus: true,
		BudgetMW: 300, Scheme: scheme, Repeat: 1, Seed: seed,
		Tasks: randomDAG(seed, 12, customAccels, 5e3, 25e3, 2),
	}
}

// engineStats accumulates what an engine pass measured.
type engineStats struct {
	mu        sync.Mutex
	lat       [][]float64 // per block, raw ms per request
	ops       int         // trials (exchange) or runs (soc)
	simSum    float64     // simulated response µs, summed
	simN      float64     // and its weight
	attempted int
	failed    int
	errs      []string
	firsts    []firstReq // first request of each block, for the parallelism check
}

type firstReq struct {
	req blitzcoin.Request
	sha string
}

func (st *engineStats) fail(format string, a ...any) {
	st.mu.Lock()
	st.failed++
	if len(st.errs) < 8 {
		st.errs = append(st.errs, fmt.Sprintf(format, a...))
	}
	st.mu.Unlock()
}

// resultSHA is the canonical SHA of a computed result.
func resultSHA(res *blitzcoin.Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return blitzcoin.CanonicalResultSHA(b)
}

// checkResult applies the per-request output checks and accumulates the
// simulated response time. It returns the request's op count.
func (st *engineStats) checkResult(req blitzcoin.Request, res *blitzcoin.Result) (int, string) {
	switch {
	case res.Exchange != nil:
		for i, r := range res.Exchange.Rows {
			if !r.CoinsConserved || r.PoolViolation != 0 {
				return len(res.Exchange.Rows), fmt.Sprintf("exchange trial %d of seed %d: coins not conserved (violation %d)", i, req.Exchange.Seed, r.PoolViolation)
			}
		}
		var sum float64
		for _, r := range res.Exchange.Rows {
			if r.Converged {
				sum += r.ConvergenceMicros
			}
		}
		st.mu.Lock()
		st.simSum += sum
		st.simN += float64(res.Exchange.Converged)
		st.mu.Unlock()
		return len(res.Exchange.Rows), ""
	case res.SoC != nil:
		if !res.SoC.Completed {
			return 1, fmt.Sprintf("soc run %s/%s/%s did not complete", res.SoC.SoC, res.SoC.Scheme, res.SoC.Workload)
		}
		st.mu.Lock()
		st.simSum += res.SoC.MeanResponseMicros * float64(res.SoC.ResponsesRecorded)
		st.simN += float64(res.SoC.ResponsesRecorded)
		st.mu.Unlock()
		return 1, ""
	}
	return 1, "empty result"
}

// enginePass runs blocks of requests through blitzcoin.Execute in a closed
// loop of callers, one timed block at a time. With a tracer each request
// is also run decomposed into the public calls Execute makes, and the two
// results must agree.
type enginePass struct {
	callers int
	blocks  int
	gen     func(seed uint64, b int) []blitzcoin.Request
	seed    uint64
	tr      *tracer
	layers  *layerAcc
}

func (p *enginePass) run(c *clock, st *engineStats) error {
	ctx := context.Background()
	var reqID atomic.Int32
	for b := 0; b < p.blocks; b++ {
		reqs := p.gen(p.seed, b)
		lat := make([]float64, len(reqs))
		results := make([]*blitzcoin.Result, len(reqs))
		p.tr.setBlock(len(c.blocks))
		var next atomic.Int64
		_, err := c.block(func() {
			var wg sync.WaitGroup
			for w := 0; w < p.callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(reqs) {
							return
						}
						id := reqID.Add(1)
						t0 := time.Now()
						res, err := blitzcoin.Execute(ctx, reqs[i])
						lat[i] = msSince(t0)
						if err != nil {
							st.fail("execute: %v", err)
							continue
						}
						results[i] = res
						if p.tr != nil {
							p.decompose(id, reqs[i], res, lat[i], st)
						}
					}
				}()
			}
			wg.Wait()
		})
		if err != nil {
			return err
		}
		for i, res := range results {
			st.attempted++
			if res == nil {
				continue
			}
			n, msg := st.checkResult(reqs[i], res)
			st.ops += n
			if msg != "" {
				st.fail("%s", msg)
			}
		}
		st.lat = append(st.lat, lat)
		if results[0] != nil {
			sha, err := resultSHA(results[0])
			if err != nil {
				return err
			}
			st.firsts = append(st.firsts, firstReq{reqs[0], sha})
		}
	}
	return nil
}

// checkParallelism recomputes each block's first request at sweep
// parallelism 1 and compares it with the result computed at nproc.
func checkParallelism(st *engineStats) {
	sweep.SetDefaultParallelism(1)
	defer sweep.SetDefaultParallelism(0)
	for _, f := range st.firsts {
		res, err := blitzcoin.Execute(context.Background(), f.req)
		if err != nil {
			st.fail("parallelism-1 execute: %v", err)
			continue
		}
		sha, err := resultSHA(res)
		if err != nil || sha != f.sha {
			st.fail("result at sweep parallelism 1 (%s) differs from parallelism %d (%s)", sha, runtime.GOMAXPROCS(0), f.sha)
		}
	}
}

// layerAcc accumulates counts and layer timings that are not spans.
type layerAcc struct {
	mu           sync.Mutex
	coinEvents   uint64
	coinPackets  uint64
	coinExch     uint64
	coinCycles   uint64
	coinRetries  uint64
	socEvents    uint64
	socExec      uint64
	socResponses uint64
	nocPackets   uint64
	nocHops      uint64
	nocContend   uint64
	nocPM        uint64
	sweepBusyNs  float64
	sweepCapNs   float64
	execNs       float64 // Execute pass
	decompNs     float64 // decomposed, traced pass
	exchangeSeen bool
	socSeen      bool
}

func (l *layerAcc) addNoC(s noc.Stats) {
	l.nocPackets += s.Sent
	l.nocHops += s.TotalHops
	l.nocContend += s.ContentionCyc
	l.nocPM += s.PerPlaneSent[noc.PlanePM]
}

// decompose reruns one request through the public calls Execute makes,
// with a span around each, and checks the outcome against Execute's.
func (p *enginePass) decompose(id int32, req blitzcoin.Request, want *blitzcoin.Result, execMs float64, st *engineStats) {
	t0 := time.Now()
	root := p.tr.begin("request", id, -1)
	sp := p.tr.begin("blitzcoin.prepare", id, root)
	n := req.Normalized()
	err := n.Validate()
	if err == nil {
		_, err = n.CanonicalHash()
	}
	p.tr.end(sp)
	if err != nil {
		st.fail("prepare: %v", err)
		p.tr.end(root)
		return
	}
	var msg string
	switch n.Kind {
	case blitzcoin.KindExchange:
		msg = p.decomposeExchange(id, root, n, want)
	case blitzcoin.KindSoC, blitzcoin.KindCustomSoC:
		msg = p.decomposeSoC(id, root, n, want)
	}
	enc := p.tr.begin("blitzcoin.encode", id, root)
	b, err := json.Marshal(want)
	p.tr.end(enc)
	if err == nil {
		sha := p.tr.begin("blitzcoin.result_sha", id, root)
		_, err = blitzcoin.CanonicalResultSHA(b)
		p.tr.end(sha)
	}
	p.tr.end(root)
	if err != nil {
		st.fail("encode: %v", err)
	}
	p.layers.mu.Lock()
	p.layers.execNs += execMs * 1e6
	p.layers.decompNs += float64(time.Since(t0).Nanoseconds())
	p.layers.mu.Unlock()
	if msg != "" {
		st.fail("decomposed run differs from Execute: %s", msg)
	}
}

// trialOut is one decomposed exchange trial.
type trialOut struct {
	res     coin.Result
	thermal uint64
}

func (p *enginePass) decomposeExchange(id, root int32, n blitzcoin.Request, want *blitzcoin.Result) string {
	base := *n.Exchange
	par := min(sweep.DefaultParallelism(), n.Trials)
	sw := p.tr.begin("sweep.MapRange", id, root)
	t0 := time.Now()
	var busy atomic.Int64
	rows := sweep.MapRange(context.Background(), 0, n.Trials, 0, func(t int) trialOut {
		ts := time.Now()
		tsp := p.tr.begin("sweep.trial", id, sw)
		o := base
		o.Seed = base.Seed + uint64(t)*7919
		set := p.tr.begin("coin.setup", id, tsp)
		e, a := buildEmulator(o)
		e.Init(a)
		p.tr.end(set)
		run := p.tr.begin("coin.run", id, tsp)
		res := e.Run()
		p.tr.end(run)
		p.tr.end(tsp)
		busy.Add(time.Since(ts).Nanoseconds())
		l := p.layers
		l.mu.Lock()
		l.coinEvents += e.Kernel().Executed()
		l.coinPackets += res.TotalPackets
		l.coinExch += res.Exchanges
		l.coinCycles += res.EndCycles
		l.coinRetries += res.Retries
		l.addNoC(e.NetworkStats())
		l.exchangeSeen = true
		l.mu.Unlock()
		return trialOut{res: res, thermal: e.ThermalRejects()}
	})
	wall := time.Since(t0).Nanoseconds()
	p.tr.end(sw)
	p.layers.mu.Lock()
	p.layers.sweepBusyNs += float64(busy.Load())
	p.layers.sweepCapNs += float64(wall) * float64(par)
	p.layers.mu.Unlock()

	got := want.Exchange
	if got == nil || len(got.Rows) != len(rows) {
		return "row count"
	}
	for i, r := range rows {
		w := got.Rows[i]
		if w.Converged != r.res.Converged || w.ConvergenceCycles != r.res.ConvergenceCycles ||
			w.PacketsToConvergence != r.res.PacketsToConvergence || w.TotalPackets != r.res.TotalPackets ||
			w.Exchanges != r.res.Exchanges || w.FinalErr != r.res.FinalErr ||
			w.CoinsConserved != r.res.Conserved() || w.Retries != r.res.Retries ||
			w.Dropped != r.res.Dropped || w.ThermalRejects != r.thermal {
			return fmt.Sprintf("exchange trial %d of seed %d", i, base.Seed)
		}
	}
	return ""
}

// buildEmulator assembles one trial the way blitzcoin.SimulateExchange
// does, from normalized options.
func buildEmulator(o blitzcoin.ExchangeOptions) (*coin.Emulator, coin.Assignment) {
	cfg := coin.Config{
		Mesh:               mesh.Square(o.Dim, o.Torus),
		RefreshInterval:    32,
		DynamicTiming:      o.DynamicTiming,
		RandomPairing:      o.RandomPairing,
		RandomPairingEvery: o.RandomPairingEvery,
		Threshold:          o.Threshold,
		ThermalCap:         o.ThermalCap,
		StopAtConvergence:  true,
		Faults:             faultConfig(o.Faults),
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		cfg.StopAtConvergence = false
		cfg.MaxCycles = 400_000
	}
	cfg.Mode = coin.OneWay
	if o.Mode == blitzcoin.FourWay {
		cfg.Mode = coin.FourWay
	}
	src := rng.New(o.Seed)
	nTiles := cfg.Mesh.N()
	var maxes []int64
	if o.AccelTypes > 1 {
		maxes = coin.HeterogeneousMaxes(src, nTiles, o.AccelTypes, o.TargetPerTile/int64(o.AccelTypes)+1)
	} else {
		maxes = coin.UniformMaxes(nTiles, o.TargetPerTile)
	}
	pool := int64(nTiles) * o.CoinsPerTile
	var a coin.Assignment
	switch o.Init {
	case blitzcoin.InitRandom:
		a = coin.RandomAssignment(src, maxes, pool)
	case blitzcoin.InitUniform:
		a = coin.UniformRandomAssignment(src, maxes)
	default:
		a = coin.HotspotAssignment(src, maxes, pool)
	}
	return coin.NewEmulator(cfg, src), a
}

// faultConfig maps the public fault model onto the injector's config.
func faultConfig(o *blitzcoin.FaultOptions) *fault.Config {
	if o == nil {
		return nil
	}
	fc := &fault.Config{Seed: o.Seed, DropRate: o.DropRate, DupRate: o.DupRate, DelayRate: o.DelayRate, DelayMax: sim.Cycles(o.DelayMaxCycles)}
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

var socSchemes = map[blitzcoin.Scheme]soc.Scheme{
	blitzcoin.BC: soc.SchemeBC, blitzcoin.BCC: soc.SchemeBCC, blitzcoin.CRR: soc.SchemeCRR,
	blitzcoin.TS: soc.SchemeTS, blitzcoin.PT: soc.SchemePT, blitzcoin.Static: soc.SchemeStatic,
}

var builtinGraphs = map[blitzcoin.Workload]func() *workload.Graph{
	blitzcoin.AVParallel: workload.AutonomousVehicleParallel, blitzcoin.AVDependent: workload.AutonomousVehicleDependent,
	blitzcoin.CVParallel: workload.ComputerVisionParallel, blitzcoin.CVDependent: workload.ComputerVisionDependent,
	blitzcoin.Silicon7: workload.SevenAcceleratorSilicon, blitzcoin.Silicon7Par: workload.SevenAcceleratorParallel,
}

// socConfig assembles the platform and workload graph of a normalized SoC
// or custom-SoC request, as RunSoC and RunCustomSoC do.
func socConfig(n blitzcoin.Request) (soc.Config, *workload.Graph, blitzcoin.Scheme) {
	if o := n.SoC; o != nil {
		var cfg soc.Config
		switch o.SoC {
		case "3x3":
			cfg = soc.SoC3x3(o.BudgetMW, socSchemes[o.Scheme], o.Seed)
		case "4x4":
			cfg = soc.SoC4x4(o.BudgetMW, socSchemes[o.Scheme], o.Seed)
		default:
			cfg = soc.SoC6x6(o.BudgetMW, socSchemes[o.Scheme], o.Seed)
		}
		if o.AbsoluteProportional {
			cfg.Strategy = soc.AbsoluteProportional
		}
		g := builtinGraphs[o.Workload]()
		if o.Repeat > 1 {
			g = workload.Repeat(g, o.Repeat)
		}
		return cfg, g, o.Scheme
	}
	o := n.CustomSoC
	kinds := map[string]soc.TileKind{"cpu": soc.TileCPU, "mem": soc.TileMem, "io": soc.TileIO, "accel": soc.TileAccel}
	tiles := make([]soc.TileConfig, len(o.Tiles))
	for i, t := range o.Tiles {
		tiles[i] = soc.TileConfig{Kind: kinds[t.Kind], Accel: t.Accel}
	}
	cfg := soc.Config{
		Name: o.Name, Mesh: mesh.New(o.W, o.H, o.Torus), Tiles: tiles, BudgetMW: o.BudgetMW,
		Scheme: socSchemes[o.Scheme], Strategy: soc.RelativeProportional, Seed: o.Seed,
	}
	if o.AbsoluteProportional {
		cfg.Strategy = soc.AbsoluteProportional
	}
	g := &workload.Graph{Name: o.Name + "-workload"}
	for i, t := range o.Tasks {
		g.Tasks = append(g.Tasks, workload.Task{ID: i, Name: t.Name, Accel: t.Accel, WorkCycles: t.WorkCycles, Deps: append([]int(nil), t.Deps...)})
	}
	if o.Repeat > 1 {
		g = workload.Repeat(g, o.Repeat)
	}
	return cfg, g, o.Scheme
}

func (p *enginePass) decomposeSoC(id, root int32, n blitzcoin.Request, want *blitzcoin.Result) string {
	set := p.tr.begin("soc.setup", id, root)
	cfg, g, scheme := socConfig(n)
	r := soc.New(cfg)
	p.tr.end(set)
	name := "soc.run.central"
	if scheme == blitzcoin.BC || scheme == blitzcoin.BCC {
		name = "soc.run.bc"
	}
	run := p.tr.begin(name, id, root)
	res := r.Run(g)
	p.tr.end(run)
	l := p.layers
	l.mu.Lock()
	l.socEvents += r.Kernel().Executed()
	l.socExec += res.ExecCycles
	l.socResponses += uint64(len(res.Responses))
	l.addNoC(res.NoC)
	l.socSeen = true
	l.mu.Unlock()

	w := want.SoC
	if w == nil || w.Completed != res.Completed || w.ExecMicros != res.ExecMicros() ||
		w.ResponsesRecorded != len(res.Responses) || w.MeanResponseMicros != res.MeanResponseMicros() ||
		w.AvgPowerMW != res.AvgPowerMW || w.ActivityChanges != res.ActivityChanges {
		return fmt.Sprintf("soc run %s/%s", res.SoC, res.Scheme)
	}
	return ""
}
