package soc

import (
	"fmt"
	"math"

	"blitzcoin/internal/controller"
	"blitzcoin/internal/core"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/power"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/trace"
	"blitzcoin/internal/workload"
)

// accelTile is the runtime state of one managed accelerator tile.
type accelTile struct {
	idx   int // mesh index
	accel string
	curve *power.Curve
	pm    *core.TilePM

	series       string  // cached power-trace series name ("tNN-accel")
	freqMHz      float64 // effective clock, piecewise constant
	pendFreq     float64 // frequency the latest actuation will settle to
	freqEpoch    int     // guards stale actuation events
	active       bool    // a task occupies the tile (including DMA phases)
	computing    bool    // the compute phase is running (work progresses)
	taskID       int
	remaining    float64 // work cycles left in the running task
	lastProgress sim.Cycles
	compEpoch    int  // guards stale completion events
	memTile      int  // nearest memory tile, for DMA
	dead         bool // fail-stopped by an injected fault
}

// dmaTransfer tracks one DMA burst; the delivery that lands its last flit
// fires done. ESP's loosely-coupled accelerators fetch inputs and write
// results back through the memory tiles over the dedicated DMA planes
// (Sec. IV-B), so every task is bracketed by NoC bursts that contend like
// real traffic.
type dmaTransfer struct {
	remaining int
	done      func()
}

// dmaWorkPerFlit sets DMA volume: one flit per this many work cycles.
const dmaWorkPerFlit = 256

// Runner executes workloads on a configured SoC under one PM scheme.
type Runner struct {
	cfg    Config
	kernel *sim.Kernel
	net    *noc.Network
	ctrl   controller.Controller
	src    *rng.Source
	rec    *trace.Recorder

	// tiles is dense over mesh indices (nil for unmanaged tiles), so the
	// typed event handlers resolve a tile id with one indexed load.
	tiles     []*accelTile
	tileOrder []int // sorted mesh indices for deterministic iteration
	byAccel   map[string][]int
	// apShareMW is every tile's target under absolute-proportional
	// allocation: the combined Fmax power split evenly, fixed at New.
	apShareMW float64

	// UVFR settle and task completion travel the kernel as typed
	// (op, tile, epoch) events — no per-event closures on the SoC hot path.
	// opCut is a no-op that marks where a run cut by MaxCycles stops
	// (startDMA).
	opSettle, opComplete, opCut sim.OpCode

	graph           *workload.Graph
	done            map[int]bool
	finished        int
	execEnd         sim.Cycles
	activityChanges int
	ran             bool

	injector      *fault.Injector
	tilesKilled   int
	tasksRequeued int
}

// New builds a Runner for the configuration. It panics on invalid configs
// (configurations are produced by this package's constructors; failure is a
// programming error, matching the package style).
func New(cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.CoinRefreshInterval == 0 {
		cfg.CoinRefreshInterval = 32
	}
	if cfg.ConvergenceThreshold == 0 {
		cfg.ConvergenceThreshold = 1.0
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 80_000_000 // 100 ms
	}
	k := &sim.Kernel{}
	net := noc.New(k, cfg.Mesh, noc.DefaultConfig())
	src := rng.New(cfg.Seed)
	r := &Runner{
		cfg:     cfg,
		kernel:  k,
		net:     net,
		src:     src,
		rec:     trace.NewRecorder(),
		tiles:   make([]*accelTile, cfg.Mesh.N()),
		byAccel: make(map[string][]int),
	}
	r.rec.Attach(cfg.Stream)
	r.opSettle = k.RegisterOp(func(tile int32, x uint64) { r.settleDone(int(tile), int(x)) })
	r.opComplete = k.RegisterOp(func(tile int32, x uint64) { r.completionDue(int(tile), int(x)) })
	r.opCut = k.RegisterOp(func(int32, uint64) {})
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		r.injector = fault.NewInjector(*cfg.Faults)
		net.AttachFaults(r.injector)
	}

	catalog := power.Catalog()
	var specs []controller.TileSpec
	mwPerCoinRef := 0.0
	for _, idx := range cfg.AccelTiles() {
		c := catalog[cfg.Tiles[idx].Accel]
		specs = append(specs, controller.TileSpec{
			Tile:   idx,
			PMaxMW: c.PMax(),
			PMinMW: c.PMin(),
		})
		if c.PMax() > mwPerCoinRef {
			mwPerCoinRef = c.PMax()
		}
	}
	mwPerCoin := mwPerCoinRef / 63

	// Memory tiles serve DMA; each accelerator pairs with its nearest one.
	var memTiles []int
	for i, tc := range cfg.Tiles {
		if tc.Kind == TileMem {
			memTiles = append(memTiles, i)
		}
	}
	nearestMem := func(idx int) int {
		best, bestD := -1, 1<<30
		for _, m := range memTiles {
			if d := cfg.Mesh.HopDistance(idx, m); d < bestD {
				best, bestD = m, d
			}
		}
		return best
	}

	for _, idx := range cfg.AccelTiles() {
		c := catalog[cfg.Tiles[idx].Accel]
		t := &accelTile{
			idx:     idx,
			accel:   cfg.Tiles[idx].Accel,
			series:  fmt.Sprintf("t%02d-%s", idx, cfg.Tiles[idx].Accel),
			curve:   c,
			pm:      core.NewTilePM(c, mwPerCoin),
			taskID:  -1,
			memTile: nearestMem(idx),
		}
		t.freqMHz = t.pm.FreqMHz() // regulator reset state: minimum V point
		r.tiles[idx] = t
		r.tileOrder = append(r.tileOrder, idx)
		r.byAccel[t.accel] = append(r.byAccel[t.accel], idx)
	}
	if cfg.Strategy == AbsoluteProportional {
		r.apShareMW = cfg.CombinedPMaxMW() / float64(len(r.tileOrder))
	}

	// DMA deliveries demux by transfer (payload pointer), so one handler per
	// (tile, plane) suffices for all concurrent bursts. A delivery stands
	// for p.Flits flits: a whole train on a healthy fabric, one flit when
	// a fault injector makes every flit its own packet.
	dmaHandler := func(p *noc.Packet) {
		tr := p.Payload.(*dmaTransfer)
		tr.remaining -= p.Flits
		if tr.remaining == 0 {
			tr.done()
		}
	}
	for _, plane := range []noc.Plane{noc.PlaneDMA0, noc.PlaneDMA1} {
		for i := range cfg.Tiles {
			net.SetHandler(i, plane, dmaHandler)
		}
	}

	switch cfg.Scheme {
	case SchemeBC:
		r.ctrl = newBCAdapter(k, net, specs, cfg.BudgetMW, src.Split(),
			cfg.CoinRefreshInterval, cfg.ConvergenceThreshold)
	case SchemeBCC:
		r.ctrl = controller.NewBCC(k, net, specs, cfg.BudgetMW, cfg.CPUTile())
	case SchemeCRR:
		r.ctrl = controller.NewCRR(k, net, specs, cfg.BudgetMW, cfg.CPUTile())
	case SchemeTS:
		r.ctrl = controller.NewTokenSmart(k, net, specs, cfg.BudgetMW, controller.TSConfig{})
	case SchemePT:
		r.ctrl = controller.NewPriceTheory(k, net, specs, cfg.BudgetMW, cfg.CPUTile())
	case SchemeStatic:
		r.ctrl = controller.NewStatic(k, specs, cfg.BudgetMW)
	default:
		panic(fmt.Sprintf("soc: unknown scheme %v", cfg.Scheme))
	}
	r.ctrl.OnAllocation(r.onAllocation)
	if r.injector != nil {
		// Harden the coin fabric first (it registers its own kill reaction),
		// then hook the harness-level consequences of a tile kill.
		if bc, ok := r.ctrl.(*bcAdapter); ok {
			bc.attachFaults(r.injector)
		}
		r.injector.OnTileKill(r.killTile)
	}
	return r
}

// killTile fail-stops a managed accelerator tile mid-run: the PM datapath
// dies (power drops to zero, the fault CSR latches), any pending actuation
// and completion events are cancelled, and a task caught on the tile is
// re-queued so a surviving tile of the same accelerator type picks it up.
// Kills addressed at unmanaged tiles only affect the NoC (the fault layer
// already swallows their traffic).
func (r *Runner) killTile(idx int) {
	t := r.tiles[idx]
	if t == nil || t.dead {
		return
	}
	now := r.kernel.Now()
	r.progressTo(t, now)
	t.dead = true
	r.tilesKilled++
	t.pm.Kill()
	t.freqEpoch++ // cancel in-flight actuation
	t.compEpoch++ // cancel in-flight completion and DMA callbacks
	t.freqMHz = 0
	t.computing = false
	if t.active {
		t.active = false
		t.taskID = -1
		t.remaining = 0
		r.tasksRequeued++
		r.activityChanges++
	}
	// Release the tile's power claim. Under BlitzCoin the emulator ignores
	// the dead tile and the audit re-mints its stranded coins; centralized
	// schemes get told directly so they can reallocate.
	r.ctrl.SetTarget(t.idx, 0)
	r.recordPower(t)
	r.dispatch()
}

// Controller exposes the PM scheme, mainly for tests.
func (r *Runner) Controller() controller.Controller { return r.ctrl }

// Kernel exposes the simulation clock.
func (r *Runner) Kernel() *sim.Kernel { return r.kernel }

// targetMW returns the tile's power target under the configured allocation
// strategy (Sec. V-B): AP gives every tile the same target; RP gives each
// tile a target proportional to its power at Fmax.
func (r *Runner) targetMW(t *accelTile) float64 {
	if r.cfg.Strategy == AbsoluteProportional {
		return r.apShareMW
	}
	return t.curve.PMax()
}

// progressTo banks task progress at the current effective frequency. Work
// cycles complete at freqMHz per microsecond, i.e. freq/800 per NoC cycle.
// Progress only accrues during the compute phase, not while DMA brackets
// the task.
func (r *Runner) progressTo(t *accelTile, now sim.Cycles) {
	if t.computing && now > t.lastProgress {
		t.remaining -= float64(now-t.lastProgress) * t.freqMHz / 800.0
	}
	t.lastProgress = now
}

// startDMA launches a burst of flits between a tile and its memory tile,
// invoking done when the last flit lands. The flits alternate between the
// two DMA planes, as ESP splits accelerator DMA across planes: the odd
// count's extra flit rides DMA0. Each plane's share travels as one
// noc.SendBurst train, one kernel event however many flits it carries.
func (r *Runner) startDMA(t *accelTile, toMem bool, flits int, done func()) {
	if t.memTile < 0 || flits <= 0 {
		r.kernel.Schedule(1, done)
		return
	}
	src, dst := t.memTile, t.idx
	if toMem {
		src, dst = t.idx, t.memTile
	}
	tr := &dmaTransfer{remaining: flits, done: done}
	k0, k1 := (flits+1)/2, flits/2
	first0 := r.net.SendBurst(noc.PlaneDMA0, noc.KindOther, src, dst, k0, tr)
	first1 := r.net.SendBurst(noc.PlaneDMA1, noc.KindOther, src, dst, k1, tr)
	if r.injector == nil {
		// Run stops after its first event at or after MaxCycles. A train
		// is one event, its last flit's delivery (flit i lands at
		// first+i). Where an earlier flit would have been that first
		// event, a no-op at its cycle keeps the stop where it was. Under
		// a fault injector every flit is its own event already.
		cut := cutIn(first0, k0, r.cfg.MaxCycles)
		if c := cutIn(first1, k1, r.cfg.MaxCycles); c < cut {
			cut = c
		}
		if cut != noCut {
			r.kernel.AtOp(cut, r.opCut, 0, 0)
		}
	}
}

// noCut is cutIn's answer for a train with no undelivered flit at or
// after the deadline.
const noCut = sim.Cycles(math.MaxUint64)

// cutIn returns the first cycle at or after deadline at which a train of
// flits flits, the first landing at first, lands a flit other than its
// last, or noCut.
func cutIn(first sim.Cycles, flits int, deadline sim.Cycles) sim.Cycles {
	if flits < 2 {
		return noCut
	}
	c := max(first, deadline)
	if c > first+sim.Cycles(flits)-2 {
		return noCut
	}
	return c
}

// recordPower appends the tile's current draw to its trace series.
func (r *Runner) recordPower(t *accelTile) {
	var p float64
	switch {
	case t.dead:
		p = 0
	case t.active:
		p = t.curve.PowerAt(t.freqMHz)
	default:
		p = t.curve.IdlePowerMW()
	}
	r.rec.Series(t.series).Record(r.kernel.Now(), p)
}

// onAllocation handles a power-allocation change from the PM scheme: it
// retargets the tile's regulator and applies the new effective frequency
// after the UVFR settling delay.
func (r *Runner) onAllocation(tileIdx int, mw float64) {
	t := r.tiles[tileIdx]
	if t == nil || t.dead {
		return
	}
	now := r.kernel.Now()
	r.progressTo(t, now)

	t.pm.SetPowerMW(mw)
	settle, _ := t.pm.Reg.SettleCycles(512)

	// Epoch-guard the actuation: only the newest settle event applies, and
	// pendFreq is exactly the frequency that event was armed with.
	t.pendFreq = t.pm.FreqMHz()
	t.freqEpoch++
	r.kernel.ScheduleOp(settle, r.opSettle, int32(t.idx), uint64(t.freqEpoch))
}

// settleDone applies a UVFR actuation once the regulator settles, unless a
// newer retarget superseded it.
func (r *Runner) settleDone(idx, epoch int) {
	t := r.tiles[idx]
	if t.freqEpoch != epoch {
		return
	}
	r.progressTo(t, r.kernel.Now())
	t.freqMHz = t.pendFreq
	r.recordPower(t)
	if t.computing {
		r.scheduleCompletion(t)
	}
}

// scheduleCompletion (re)arms the task-completion event at the current
// frequency.
func (r *Runner) scheduleCompletion(t *accelTile) {
	t.compEpoch++
	if t.freqMHz <= 0 {
		panic("soc: tile clock stalled with an active task")
	}
	eta := sim.Cycles(math.Ceil(t.remaining*800.0/t.freqMHz)) + 1
	r.kernel.ScheduleOp(eta, r.opComplete, int32(t.idx), uint64(t.compEpoch))
}

// completionDue fires when the task armed at this epoch should have finished
// at the frequency then in effect; a frequency change re-arms it instead.
func (r *Runner) completionDue(idx, epoch int) {
	t := r.tiles[idx]
	if t.compEpoch != epoch || !t.computing {
		return
	}
	r.progressTo(t, r.kernel.Now())
	if t.remaining <= 0.5 {
		r.completeTask(t)
	} else {
		r.scheduleCompletion(t)
	}
}

// startTask dispatches a ready task onto an idle tile: request power, fetch
// inputs over DMA, then compute.
func (r *Runner) startTask(taskID int, t *accelTile) {
	task := r.graph.Tasks[taskID]
	t.active = true
	t.computing = false
	t.taskID = taskID
	t.remaining = task.WorkCycles
	r.activityChanges++
	r.recordPower(t)
	r.ctrl.SetTarget(t.idx, r.targetMW(t))
	// Input DMA overlaps the power-allocation ramp; compute starts when
	// the data is in.
	epoch := t.compEpoch
	r.startDMA(t, false, int(task.WorkCycles/dmaWorkPerFlit), func() {
		if t.taskID != taskID || t.compEpoch != epoch {
			return
		}
		t.computing = true
		t.lastProgress = r.kernel.Now()
		r.scheduleCompletion(t)
	})
}

// completeTask finishes the compute phase: write results back over DMA,
// then release the tile's power target and dispatch unblocked work.
func (r *Runner) completeTask(t *accelTile) {
	taskID := t.taskID
	task := r.graph.Tasks[taskID]
	t.computing = false
	epoch := t.compEpoch
	r.startDMA(t, true, int(task.WorkCycles/dmaWorkPerFlit), func() {
		if t.taskID != taskID || t.compEpoch != epoch {
			return
		}
		r.done[taskID] = true
		t.active = false
		t.taskID = -1
		t.remaining = 0
		r.finished++
		r.activityChanges++
		r.recordPower(t)
		r.ctrl.SetTarget(t.idx, 0)
		if r.finished == len(r.graph.Tasks) {
			r.execEnd = r.kernel.Now()
			return
		}
		r.dispatch()
	})
}

// dispatch assigns every ready task to an idle tile of the matching
// accelerator type, in task-ID order.
func (r *Runner) dispatch() {
	for _, id := range r.graph.Ready(r.done) {
		if r.taskRunning(id) {
			continue
		}
		tile := r.idleTileFor(r.graph.Tasks[id].Accel)
		if tile == nil {
			continue
		}
		r.startTask(id, tile)
	}
}

func (r *Runner) taskRunning(id int) bool {
	for _, idx := range r.tileOrder {
		if t := r.tiles[idx]; t.active && t.taskID == id {
			return true
		}
	}
	return false
}

func (r *Runner) idleTileFor(accel string) *accelTile {
	for _, idx := range r.byAccel[accel] {
		if t := r.tiles[idx]; !t.active && !t.dead {
			return t
		}
	}
	return nil
}

// Run executes the workload to completion (or the MaxCycles bound) and
// returns the measured result.
func (r *Runner) Run(g *workload.Graph) Result {
	if r.ran {
		panic("soc: Runner.Run called twice; build a fresh Runner per run")
	}
	r.ran = true
	if err := g.Validate(); err != nil {
		panic(err)
	}
	for _, task := range g.Tasks {
		if len(r.byAccel[task.Accel]) == 0 {
			panic(fmt.Sprintf("soc: workload %s needs accelerator %q, absent from %s",
				g.Name, task.Accel, r.cfg.Name))
		}
	}
	r.graph = g
	r.done = make(map[int]bool)

	r.ctrl.Start()
	if r.injector != nil {
		r.injector.Arm(r.kernel)
	}
	for _, idx := range r.tileOrder {
		r.recordPower(r.tiles[idx])
	}
	r.kernel.Schedule(1, r.dispatch)

	deadline := r.cfg.MaxCycles
	r.kernel.RunUntil(func() bool {
		return r.finished == len(g.Tasks) || r.kernel.Now() >= deadline
	}, 0)

	completed := r.finished == len(g.Tasks)
	end := r.execEnd
	if !completed {
		end = r.kernel.Now()
	}
	return r.buildResult(g, end, completed)
}
