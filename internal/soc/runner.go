package soc

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"blitzcoin/internal/controller"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/power"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/trace"
	"blitzcoin/internal/uvfr"
	"blitzcoin/internal/workload"
)

// accelTile is the runtime state of one managed accelerator tile. A run's
// tiles, regulators included, are one slab.
type accelTile struct {
	idx   int // mesh index
	accel string
	curve *power.Curve
	reg   uvfr.Regulator // the tile's UVFR loop (LDO + RO + TDC)

	series       *trace.Series // the tile's power trace ("tNN-accel")
	freqMHz      float64       // effective clock, piecewise constant
	pendFreq     float64       // frequency the latest actuation will settle to
	freqEpoch    int           // guards stale actuation events
	active       bool          // a task occupies the tile (including DMA phases)
	computing    bool          // the compute phase is running (work progresses)
	taskID       int
	remaining    float64 // work cycles left in the running task
	lastProgress sim.Cycles
	compEpoch    int  // guards stale completion events
	memTile      int  // nearest memory tile, for DMA
	dead         bool // fail-stopped by an injected fault
}

// dmaBurst is one DMA burst in flight: the number of its trains still to
// land, and the typed continuation dmaDone runs when the last one has.
// ESP's loosely-coupled accelerators fetch inputs and write results back
// through the memory tiles over the dedicated DMA planes (Sec. IV-B), so
// every task is bracketed by NoC bursts that contend like real traffic. A
// one-flit train is a lone message, whose delivery the NoC credits when it
// lands (noc.Network.Arrive); the cycle the burst was routed and its hop
// count, the same for both trains, are kept for that.
type dmaBurst struct {
	trains   int
	injected sim.Cycles
	hops     int
	next     dmaNext
}

// dmaNext is what a DMA burst continues with: the task it moves data for,
// on the tile at index tile, whose compEpoch was epoch when the burst
// started (a kill since then makes the burst stale), and the direction:
// toMem is the write-back that ends the task, otherwise the input fetch
// that starts its compute phase.
type dmaNext struct {
	tile, task int32
	epoch      int
	toMem      bool
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
	// apShareMW is every tile's target under absolute-proportional
	// allocation: the combined Fmax power split evenly, fixed at New.
	apShareMW float64

	// UVFR settle and task completion travel the kernel as typed
	// (op, tile, epoch) events — no per-event closures on the SoC hot path.
	// A DMA train lands as (opLand, destination, x), x being its burst's
	// record index in bursts, doubled, plus one for a one-flit train; a
	// task that moves no data continues a cycle later as (opNoDMA, 0,
	// record index). opCut is a no-op that marks where a run cut by
	// MaxCycles stops (startDMA).
	opSettle, opComplete, opLand, opNoDMA, opCut sim.OpCode
	bursts                                       sim.Slots[dmaBurst]

	graph *workload.Graph
	// done and running are indexed by task ID; ready is dispatch's
	// reused buffer.
	done, running   []bool
	ready           []int
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
//
// What New builds scales with the platform and comes in per-run slabs, not
// one allocation per tile: the tiles with their regulators, their trace
// series, the series' first points and their names.
func New(cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 80_000_000 // 100 ms
	}
	k := &sim.Kernel{}
	net := noc.New(k, cfg.Mesh, noc.DefaultConfig())
	src := rng.New(cfg.Seed)
	accels := cfg.AccelTiles()
	r := &Runner{
		cfg:       cfg,
		kernel:    k,
		net:       net,
		src:       src,
		tiles:     make([]*accelTile, cfg.Mesh.N()),
		tileOrder: accels,
	}
	r.opSettle = k.RegisterOp(func(tile int32, x uint64) { r.settleDone(int(tile), int(x)) })
	r.opComplete = k.RegisterOp(func(tile int32, x uint64) { r.completionDue(int(tile), int(x)) })
	r.opLand = k.RegisterOp(func(_ int32, x uint64) { r.trainLanded(int32(x>>1), x&1 == 1) })
	r.opNoDMA = k.RegisterOp(func(_ int32, x uint64) { r.burstDone(int32(x)) })
	r.opCut = k.RegisterOp(func(int32, uint64) {})
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		r.injector = fault.NewInjector(*cfg.Faults)
		net.AttachFaults(r.injector)
	}

	// Memory tiles serve DMA; each accelerator pairs with its nearest one.
	nearestMem := func(idx int) int {
		best, bestD := -1, 1<<30
		for m, tc := range cfg.Tiles {
			if tc.Kind != TileMem {
				continue
			}
			if d := cfg.Mesh.HopDistance(idx, m); d < bestD {
				best, bestD = m, d
			}
		}
		return best
	}

	// A tile records a point per task start, end and actuation: 15-19 in
	// a C-RR 4x4 frame, so each series starts with room for 16.
	const firstPoints = 16
	n := len(accels)
	slab := make([]accelTile, n)
	series := make([]trace.Series, n)
	seriesRefs := make([]*trace.Series, n)
	points := make([]trace.Point, n*firstPoints)
	specs := make([]controller.TileSpec, n)
	nameSeries(series, cfg.Tiles, accels)
	for i, idx := range accels {
		c := power.Lookup(cfg.Tiles[idx].Accel)
		specs[i] = controller.TileSpec{Tile: idx, PMaxMW: c.PMax(), PMinMW: c.PMin()}
		s := &series[i]
		s.Points = points[i*firstPoints : i*firstPoints : (i+1)*firstPoints]
		seriesRefs[i] = s
		t := &slab[i]
		t.idx = idx
		t.accel = cfg.Tiles[idx].Accel
		t.series = s
		t.curve = c
		t.reg.Init(uvfr.ConfigForCurve(c))
		t.taskID = -1
		t.memTile = nearestMem(idx)
		t.freqMHz = t.reg.FreqMHz() // regulator reset state: minimum V point
		r.tiles[idx] = t
	}
	r.rec = trace.NewRecorder(seriesRefs...)
	r.rec.Attach(cfg.Stream)
	if cfg.Strategy == AbsoluteProportional {
		r.apShareMW = cfg.CombinedPMaxMW() / float64(n)
	}

	switch cfg.Scheme {
	case SchemeBC:
		r.ctrl = newBCAdapter(k, net, specs, cfg.BudgetMW, src.Split())
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

// nameSeries names each managed tile's power trace "tNN-accel", the mesh
// index zero-padded to two digits as %02d prints it; the names are
// substrings of one string.
func nameSeries(series []trace.Series, tiles []TileConfig, accels []int) {
	var buf [32]byte
	name := func(idx int) []byte {
		b := append(buf[:0], 't')
		if idx < 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, int64(idx), 10)
		return append(append(b, '-'), tiles[idx].Accel...)
	}
	size := 0
	for _, idx := range accels {
		size += len(name(idx))
	}
	var all strings.Builder
	all.Grow(size)
	for _, idx := range accels {
		all.Write(name(idx))
	}
	names, off := all.String(), 0
	for i, idx := range accels {
		end := off + len(name(idx))
		series[i].Name = names[off:end]
		off = end
	}
}

// killTile fail-stops a managed accelerator tile mid-run: its power drops
// to zero and no later allocation reaches its regulator, any pending
// actuation and completion events are cancelled, and a task caught on the
// tile is re-queued so a surviving tile of the same accelerator type picks
// it up.
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
	t.freqEpoch++ // cancel in-flight actuation
	t.compEpoch++ // cancel in-flight completion and DMA callbacks
	t.freqMHz = 0
	t.computing = false
	if t.active {
		t.active = false
		r.running[t.taskID] = false
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
// continuing with next when the last flit lands. The flits alternate
// between the two DMA planes, as ESP splits accelerator DMA across planes:
// the odd count's extra flit rides DMA0. Each plane's share is routed as
// one train and lands as one kernel event, however many flits it carries.
// Both trains share a destination and a route, and random faults never
// strike the DMA planes, so a burst lands whole or is lost whole; a lost
// burst never continues. A task with no memory tile or no flits continues
// a cycle later.
func (r *Runner) startDMA(t *accelTile, flits int, next dmaNext) {
	s, b := r.bursts.Take()
	*b = dmaBurst{injected: r.kernel.Now(), next: next}
	if t.memTile < 0 || flits <= 0 {
		r.kernel.ScheduleOp(1, r.opNoDMA, 0, uint64(s))
		return
	}
	src, dst := t.memTile, t.idx
	if next.toMem {
		src, dst = t.idx, t.memTile
	}
	// Run stops after its first event at or after MaxCycles. A train is
	// one event, its last flit's landing (flit i lands at first+i). Where
	// an earlier flit would have been that first event, a no-op at its
	// cycle keeps the stop where it was.
	cut := noCut
	for _, tr := range [2]struct {
		plane noc.Plane
		flits int
	}{{noc.PlaneDMA0, (flits + 1) / 2}, {noc.PlaneDMA1, flits / 2}} {
		if tr.flits == 0 {
			continue
		}
		first, _, hops, ok := r.net.Route(tr.plane, noc.KindOther, src, dst, tr.flits)
		if !ok {
			continue
		}
		b.trains++
		b.hops = hops
		x := uint64(s) << 1
		if tr.flits == 1 {
			x |= 1
		}
		r.kernel.AtOp(first+sim.Cycles(tr.flits)-1, r.opLand, int32(dst), x)
		cut = min(cut, cutIn(first, tr.flits, r.cfg.MaxCycles))
	}
	if b.trains == 0 {
		r.bursts.Free(s)
	}
	if cut != noCut {
		r.kernel.AtOp(cut, r.opCut, 0, 0)
	}
}

// trainLanded lands one train of the burst in record s, crediting a lone
// flit's delivery, and finishes the burst once its last train has landed.
func (r *Runner) trainLanded(s int32, lone bool) {
	b := r.bursts.At(s)
	if lone {
		r.net.Arrive(b.injected, b.hops)
	}
	if b.trains--; b.trains > 0 {
		return
	}
	r.burstDone(s)
}

// burstDone frees the burst record s and runs its continuation.
func (r *Runner) burstDone(s int32) {
	next := r.bursts.At(s).next
	r.bursts.Free(s)
	r.dmaDone(next)
}

// dmaDone continues a task once its DMA burst is in, unless the tile was
// killed or took another task since the burst started: an input fetch
// starts the compute phase; a write-back finishes the task, releases the
// tile's power target and dispatches unblocked work.
func (r *Runner) dmaDone(next dmaNext) {
	t := r.tiles[next.tile]
	taskID := int(next.task)
	if t.taskID != taskID || t.compEpoch != next.epoch {
		return
	}
	if !next.toMem {
		t.computing = true
		t.lastProgress = r.kernel.Now()
		r.scheduleCompletion(t)
		return
	}
	r.done[taskID] = true
	r.running[taskID] = false
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
	t.series.Record(r.kernel.Now(), p)
}

// onAllocation handles a power-allocation change from the PM scheme: it
// retargets the tile's regulator to the highest frequency the allocation
// sustains and applies the new effective frequency after the UVFR settling
// delay. Under BlitzCoin an allocation of k coins arrives as k·mW-per-coin,
// so the target is entry k of the paper's coin→frequency LUT (Sec. IV-A).
func (r *Runner) onAllocation(tileIdx int, mw float64) {
	t := r.tiles[tileIdx]
	if t == nil || t.dead {
		return
	}
	now := r.kernel.Now()
	r.progressTo(t, now)

	t.reg.SetTargetMHz(t.curve.FreqAtPower(mw))
	settle, _ := t.reg.SettleCycles(512)

	// Epoch-guard the actuation: only the newest settle event applies, and
	// pendFreq is exactly the frequency that event was armed with.
	t.pendFreq = t.reg.FreqMHz()
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
	task := &r.graph.Tasks[taskID]
	t.active = true
	t.computing = false
	t.taskID = taskID
	r.running[taskID] = true
	t.remaining = task.WorkCycles
	r.activityChanges++
	r.recordPower(t)
	r.ctrl.SetTarget(t.idx, r.targetMW(t))
	// Input DMA overlaps the power-allocation ramp; compute starts when
	// the data is in.
	r.startDMA(t, int(task.WorkCycles/dmaWorkPerFlit),
		dmaNext{tile: int32(t.idx), task: int32(taskID), epoch: t.compEpoch})
}

// completeTask finishes the compute phase: write results back over DMA,
// then release the tile's power target and dispatch unblocked work.
func (r *Runner) completeTask(t *accelTile) {
	task := &r.graph.Tasks[t.taskID]
	t.computing = false
	r.startDMA(t, int(task.WorkCycles/dmaWorkPerFlit),
		dmaNext{tile: int32(t.idx), task: int32(t.taskID), epoch: t.compEpoch, toMem: true})
}

// dispatch assigns every ready task that is not already running to an
// idle tile of the matching accelerator type, in task-ID order. Starting a
// task schedules events but runs none, so dispatch never re-enters itself
// while it walks the ready buffer.
func (r *Runner) dispatch() {
	r.ready = r.graph.Ready(r.done, r.ready[:0])
	for _, id := range r.ready {
		if r.running[id] {
			continue
		}
		tile := r.idleTileFor(r.graph.Tasks[id].Accel)
		if tile == nil {
			continue
		}
		r.startTask(id, tile)
	}
}

// idleTileFor returns the lowest-indexed live idle tile of the accelerator
// type, or nil.
func (r *Runner) idleTileFor(accel string) *accelTile {
	for _, idx := range r.tileOrder {
		if t := r.tiles[idx]; t.accel == accel && !t.active && !t.dead {
			return t
		}
	}
	return nil
}

// hasAccel reports whether the SoC has a managed tile of the type.
func (r *Runner) hasAccel(accel string) bool {
	for _, idx := range r.tileOrder {
		if r.tiles[idx].accel == accel {
			return true
		}
	}
	return false
}

// Run executes the workload to completion (or the MaxCycles bound) and
// returns the measured result.
func (r *Runner) Run(g *workload.Graph) Result {
	r.begin(g)
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

// begin validates g and arms its run: the PM scheme and fault injector
// start, every tile records its idle draw, and the first dispatch is
// scheduled.
func (r *Runner) begin(g *workload.Graph) {
	if r.ran {
		panic("soc: Runner.Run called twice; build a fresh Runner per run")
	}
	r.ran = true
	if err := g.Validate(); err != nil {
		panic(err)
	}
	for i := range g.Tasks {
		if a := g.Tasks[i].Accel; !r.hasAccel(a) {
			panic(fmt.Sprintf("soc: workload %s needs accelerator %q, absent from %s",
				g.Name, a, r.cfg.Name))
		}
	}
	// The run keeps its own task state; it never writes the graph, which
	// may be a shared base graph.
	r.graph = g
	n := len(g.Tasks)
	state := make([]bool, 2*n)
	r.done, r.running = state[:n:n], state[n:]
	r.ready = make([]int, 0, n)

	r.ctrl.Start()
	if r.injector != nil {
		r.injector.Arm(r.kernel)
	}
	for _, idx := range r.tileOrder {
		r.recordPower(r.tiles[idx])
	}
	r.kernel.Schedule(1, r.dispatch)
}
