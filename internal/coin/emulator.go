package coin

import (
	"math"
	"math/bits"
	"sort"

	"blitzcoin/internal/fault"
	"blitzcoin/internal/noc"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

// CoinMsg is the payload of the three coin-exchange message kinds. The
// fields mirror the few-dozen-bit hardware message: coin state (Has, Max),
// a coin movement (Delta), protocol flags, and the exchange sequence number
// used to pair replies with requests:
//
//   - request (KindCoinRequest): a 4-way center asks a neighbor for status.
//     Seq identifies the center's attempt so late replies to a timed-out
//     attempt are discarded.
//   - status (KindCoinStatus): a tile's (Has, Max) state. Reply distinguishes
//     a 4-way status reply from a 1-way exchange initiation; Nack means the
//     responder is mid-exchange and refuses to join the group — the conflict
//     case the paper notes the 4-way arithmetic needs synchronization
//     primitives for (Sec. III-B).
//   - update (KindCoinUpdate): a signed coin transfer. Expressing updates as
//     deltas — rather than absolute counts — makes the protocol conserve
//     coins exactly even when exchanges interleave; the transient negative
//     counts this can produce are the ones the hardware's sign bit absorbs
//     (Sec. IV-A). Ack marks the completion of a 1-way initiation, as opposed
//     to a 4-way delta push (which also releases the responder's
//     participation lock); Seq lets a hardened initiator ignore an ack for an
//     exchange it already timed out.
type CoinMsg struct {
	Has   int64  // sender's coin count (status)
	Max   int64  // sender's max additional coins it can absorb (status)
	Delta int64  // coins moved, positive toward the receiver (update)
	Seq   uint64 // exchange sequence number
	Reply bool   // status sent in response to a request
	Nack  bool   // status declines the exchange (locked/busy)
	Ack   bool   // update acknowledges a received update
}

// message is one coin message in flight on the PM plane: its kind and
// payload, the tile that sent it, and the send cycle and hop count the NoC
// credits its arrival with. The NoC only routes it; the emulator keeps the
// record until the message lands. dup marks a fault-injected duplicate of
// an earlier message: receivers that keep in-flight accounting must not
// double-count it, while protocol state machines still process it (that is
// the fault).
type message struct {
	msg       CoinMsg
	injected  sim.Cycles
	src, hops int32
	kind      noc.Kind
	dup       bool
}

// maxNbrs is the mesh degree: a tile has at most four distinct neighbors, so
// all per-neighbor state lives in fixed-size slot ranges indexed by the
// neighbor's position in N/E/S/W order — no maps on the exchange hot path.
const maxNbrs = 4

// Per-tile status flags, packed one byte per tile in Emulator.flags.
const (
	// fBusy: an initiated exchange is in flight.
	fBusy uint8 = 1 << iota
	// fLocked: this tile has reported its status to a 4-way center and must
	// hold its coin count frozen until the center's update arrives — the
	// synchronization barrier Sec. III-B attributes to the 4-way technique.
	fLocked
	// fPendActive: a 4-way attempt is collecting status replies.
	fPendActive
	// fDead: fail-stopped — initiates nothing, absorbs nothing.
	fDead
	// fStuck: coin register frozen — setHas is a silent no-op.
	fStuck
	// fPruned: some partner (near or far) was tombstoned, which is what
	// bounds the random-pairing search loops.
	fPruned
)

// Result summarizes one emulator run.
type Result struct {
	// Converged reports whether the global error crossed Threshold.
	Converged bool
	// ConvergenceCycles is the time of the first threshold crossing.
	ConvergenceCycles sim.Cycles
	// PacketsToConvergence counts NoC packets sent up to that crossing.
	PacketsToConvergence uint64
	// StartErr is the global error of the initial assignment.
	StartErr float64
	// FinalErr and WorstTileErr are measured at the end of the run.
	FinalErr     float64
	WorstTileErr float64
	// EndCycles is when the run stopped (convergence, quiescence, or the
	// MaxCycles bound).
	EndCycles sim.Cycles
	// TotalPackets counts all NoC packets sent during the run.
	TotalPackets uint64
	// Exchanges counts initiated exchanges across all tiles.
	Exchanges uint64
	// CoinsStart and CoinsEnd are the pool totals; CoinsEnd sums live
	// tiles only. They must match for a quiesced healthy run
	// (conservation); under faults the audit restores the match.
	CoinsStart, CoinsEnd int64
	// PoolViolation is CoinsStart minus the live pool at the end of the
	// run: nonzero means coins leaked (positive) or were duplicated
	// (negative) and the audit had not yet repaired the residue.
	PoolViolation int64

	// Fault and recovery counters (all zero on a healthy run).
	Dropped      uint64 // PM-plane packets lost in the fabric
	Retries      uint64 // exchanges abandoned by timeout and retried
	LocksBroken  uint64 // participation locks freed by the watchdog
	NbrsPruned   int    // partners removed from pairing sets as dead
	TilesDead    int    // tiles fail-stopped during the run
	AuditRepairs uint64 // audits that found and repaired a discrepancy
	CoinsMinted  int64  // coins re-minted by the audit (leak repair)
	CoinsBurned  int64  // coins burned by the audit (duplication repair)
}

// Conserved reports whether the coin pool ended exactly conserved: every
// coin of the initial assignment is accounted for on a live tile. Healthy
// runs must always conserve; faulted runs must re-conserve once the audit
// has repaired the last fault's damage.
func (r Result) Conserved() bool { return r.PoolViolation == 0 }

// ConvergenceMicros returns the convergence time in microseconds at the
// 800 MHz NoC clock.
func (r Result) ConvergenceMicros() float64 {
	return sim.CyclesToMicros(r.ConvergenceCycles)
}

// Emulator runs the coin-exchange algorithm over a simulated NoC. It mirrors
// the paper's Python emulator, with timing expressed in NoC cycles.
//
// # Memory layout
//
// Per-tile state is struct-of-arrays: each field lives in a flat array
// indexed by tile id, and per-neighbor state in flat [maxNbrs*n] tables
// indexed by tile*maxNbrs+slot. The exchange hot loop therefore streams
// over contiguous same-typed memory (the has/max registers it actually
// touches) instead of striding across fat per-tile structs, and the arrays
// of one element type share a single slab allocation. Events reach the
// emulator as typed kernel ops carrying (tile, x) — no per-event closures
// anywhere on the tick/timeout/watchdog chains or on a message's arrival.
type Emulator struct {
	cfg    Config
	timing timing
	kernel *sim.Kernel
	net    *noc.Network
	src    *rng.Source
	n      int // tile count

	// Hot per-tile state, one entry per tile (views of shared slabs).
	has, max []int64
	// interval is the dynamic-timing exchange interval.
	interval []sim.Cycles
	// seqNo numbers each tile's initiated exchanges; acks and 4-way replies
	// echo it so responses to a timed-out attempt are recognizably stale.
	// lockSeq epochs the participation lock so a stale watchdog never
	// breaks a newer lock.
	seqNo, lockSeq []uint64
	flags          []uint8
	// pendMask has a bit per neighbor slot that answered the in-flight
	// 4-way attempt; nbrDeadMask tombstones pruned neighbor slots (slots
	// are never removed, so any held index stays valid); nbrSeenMask marks
	// slots that have reported a coin count.
	pendMask, nbrDeadMask, nbrSeenMask []uint8
	// slow is the fail-slow factor (> 1 stretches intervals), 0 if none.
	slow []float64
	// errTerms caches each live tile's convergence-metric contribution.
	errTerms []float64

	// Small per-tile counters and cursors. rr is the round-robin slot
	// cursor; srOffset the PairShiftRegister state; zeroStreak counts
	// consecutive unproductive exchanges (dynamic timing); curPartner the
	// 1-way partner of the in-flight exchange; lockFrom the 4-way center
	// holding our participation lock; pendWant the reply count a 4-way
	// attempt waits for; exchCnt the initiated-exchange count driving the
	// random-pairing cadence; nbrCount/liveNbrs the total and
	// not-tombstoned neighbor slot counts.
	rr, srOffset, zeroStreak       []int32
	curPartner, lockFrom, pendWant []int32
	exchCnt, nbrCount, liveNbrs    []int32

	// Flat [maxNbrs*n] neighbor-slot tables, indexed tile*maxNbrs+slot.
	// nbrs[i*maxNbrs : i*maxNbrs+nbrCount[i]] are tile i's distinct
	// neighbors in N/E/S/W order. nbrHas caches the last coin count
	// observed from each slot (from status messages), the information the
	// thermal guard consults — the hardware gets this for free, it is the
	// same status traffic the exchange already carries. nbrFailCnt counts
	// consecutive strikes for liveness pruning. pend collects 4-way status
	// replies; the storage is reused across attempts.
	nbrs       []int32
	nbrHas     []int64
	nbrFailCnt []int32
	pend       []CoinMsg

	// Far-partner liveness (random pairing can strike non-neighbor
	// partners): lazy per-tile maps, nil until a failure is recorded, so
	// healthy runs pay nothing.
	farFail []map[int]int
	farDead []map[int]bool

	sumHas, sumMax int64
	activeCount    int // live tiles with max > 0
	liveCount      int // tiles not fail-stopped
	alpha          float64
	errSum         float64

	converged   bool
	convergedAt sim.Cycles
	pktsAtConv  uint64

	lastMovement   sim.Cycles
	lastChangeFrom sim.Cycles // time of the last SetMax/Init, for response time
	busyCount      int
	// nonzeroInFlight counts update packets carrying a nonzero delta that
	// have been sent but not yet delivered. Quiescence requires it to be
	// zero so a run never stops with coins mid-transfer.
	nonzeroInFlight int
	exchanges       uint64
	thermalRejects  uint64
	initialized     bool

	// hardened enables the recovery machinery. When off, none of the
	// timeout/watchdog/audit events are ever scheduled, so healthy runs
	// remain bit-identical to the unhardened emulator.
	hardened    bool
	injector    *fault.Injector
	armInjector bool // this emulator owns the injector and arms it at Init
	// frozen suppresses new exchange initiations during the end-of-run
	// settle phase, so stranded flags are distinguishable from keep-alive
	// transients.
	frozen bool

	// inFlightDelta sums the deltas of update packets actually travelling
	// the fabric: poolTarget == live sum + inFlightDelta is the audited
	// conservation invariant.
	inFlightDelta int64
	poolTarget    int64
	lockedCount   int
	retries       uint64
	locksBroken   uint64
	nbrsPruned    int
	tilesDead     int
	auditRepairs  uint64
	coinsMinted   int64
	coinsBurned   int64

	// onChange, when set, observes every applied coin-count change. The
	// SoC harness uses it to retarget each tile's UVFR regulator.
	onChange func(tile int, has int64)
	// onConverged, when set, observes each convergence event with the
	// response time since the triggering activity change (or Init).
	onConverged func(response sim.Cycles)

	// Typed kernel ops: every exchange tick, message arrival, retry
	// timeout, lock watchdog, and audit travels the event queue as a
	// 16-byte (op, tile, x) event — no per-event closure allocation, no
	// indirect interface call. The hardened trio is registered lazily
	// (registerHardenedOps) so healthy runs don't pay for handlers that are
	// never scheduled.
	opTick, opArrive, opTimeout, opWatchdog, opAudit sim.OpCode

	// msgs holds the coin messages in flight; a message's arrival is the
	// event (opArrive, destination, record index).
	msgs sim.Slots[message]

	// split is the 4-way group split's fixed scratch: the gathered has and
	// max of the center (index 0) and its joined neighbors, the new
	// allocation, and the remainders.
	split struct{ has, max, out, rems [1 + maxNbrs]int64 }
	// auditCands is reusable scratch for the audit's repair ordering.
	auditCands []auditCand
}

// NewEmulator builds an emulator for cfg, drawing randomness from src. It
// owns a private kernel and network.
func NewEmulator(cfg Config, src *rng.Source) *Emulator {
	cfg = cfg.withDefaults()
	k := &sim.Kernel{}
	e := NewEmulatorOn(k, noc.New(k, cfg.Mesh, noc.DefaultConfig()), cfg, src)
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		e.AttachFaults(fault.NewInjector(*cfg.Faults))
		e.armInjector = true
	}
	return e
}

// NewEmulatorOn builds an emulator over an existing kernel and network, for
// harnesses (like the full-SoC simulator) that share the clock with other
// models. The network's mesh must match cfg.Mesh. The emulator's messages
// contend for the PM plane with any other traffic on it, but it registers
// no handler there: its messages land through its own arrival op.
func NewEmulatorOn(k *sim.Kernel, net *noc.Network, cfg Config, src *rng.Source) *Emulator {
	cfg = cfg.withDefaults()
	if net.Mesh() != cfg.Mesh {
		panic("coin: network mesh does not match config mesh")
	}
	n := cfg.Mesh.N()
	e := &Emulator{
		cfg:    cfg,
		timing: deriveTiming(cfg),
		kernel: k,
		net:    net,
		src:    src,
		n:      n,
	}

	// Carve every per-tile array of one element type out of a single slab:
	// five allocations cover all hot state, and arrays the exchange loop
	// touches together are contiguous.
	i64 := make([]int64, (2+maxNbrs)*n)
	e.has = i64[:n:n]
	e.max = i64[n : 2*n : 2*n]
	e.nbrHas = i64[2*n:]

	i32 := make([]int32, (2*maxNbrs+9)*n)
	carve := func(k int) (s []int32) {
		s, i32 = i32[:k*n:k*n], i32[k*n:]
		return s
	}
	e.nbrs = carve(maxNbrs)
	e.nbrFailCnt = carve(maxNbrs)
	e.rr = carve(1)
	e.srOffset = carve(1)
	e.zeroStreak = carve(1)
	e.curPartner = carve(1)
	e.lockFrom = carve(1)
	e.pendWant = carve(1)
	e.exchCnt = carve(1)
	e.nbrCount = carve(1)
	e.liveNbrs = carve(1)

	u64 := make([]uint64, 3*n)
	e.interval = u64[:n:n]
	e.seqNo = u64[n : 2*n : 2*n]
	e.lockSeq = u64[2*n:]

	u8 := make([]uint8, 4*n)
	e.flags = u8[:n:n]
	e.pendMask = u8[n : 2*n : 2*n]
	e.nbrDeadMask = u8[2*n : 3*n : 3*n]
	e.nbrSeenMask = u8[3*n:]

	f64 := make([]float64, 2*n)
	e.slow = f64[:n:n]
	e.errTerms = f64[n:]

	e.pend = make([]CoinMsg, maxNbrs*n)

	var nbuf [maxNbrs]int
	for i := 0; i < n; i++ {
		for _, nb := range cfg.Mesh.AppendDistinctNeighbors(i, nbuf[:0]) {
			e.nbrs[i*maxNbrs+int(e.nbrCount[i])] = int32(nb)
			e.nbrCount[i]++
		}
		e.liveNbrs[i] = e.nbrCount[i]
		e.interval[i] = cfg.RefreshInterval
		e.srOffset[i] = 1
	}
	e.opTick = k.RegisterOp(func(tile int32, _ uint64) { e.tick(int(tile)) })
	e.opArrive = k.RegisterOp(func(tile int32, x uint64) { e.arrive(int(tile), int32(x)) })
	e.hardened = cfg.Harden
	if e.hardened {
		e.registerHardenedOps()
	}
	return e
}

// registerHardenedOps installs the recovery machinery's typed event
// handlers. Idempotent; called when hardening turns on (construction or
// AttachFaults) so unhardened runs never register them.
func (e *Emulator) registerHardenedOps() {
	if e.opTimeout != 0 {
		return
	}
	e.opTimeout = e.kernel.RegisterOp(func(tile int32, x uint64) { e.exchangeTimeout(int(tile), x) })
	e.opWatchdog = e.kernel.RegisterOp(func(tile int32, x uint64) { e.lockWatchdog(int(tile), x) })
	e.opAudit = e.kernel.RegisterOp(func(int32, uint64) { e.audit() })
}

// AttachFaults wires a fault injector into the emulator: the network
// consults it per packet, and the emulator reacts to tile kills, stuck coin
// registers, and fail-slow activations. Attaching an injector turns the
// recovery machinery on. Call before Init; the caller arms the injector
// (NewEmulator with cfg.Faults does both itself).
func (e *Emulator) AttachFaults(in *fault.Injector) {
	if e.initialized {
		panic("coin: AttachFaults after Init")
	}
	e.hardened = true
	e.registerHardenedOps()
	e.injector = in
	e.net.AttachFaults(in)
	in.OnTileKill(e.killTile)
	in.OnStuckCounter(func(i int) { e.flags[i] |= fStuck })
	in.OnFailSlow(func(i int, f float64) { e.slow[i] = f })
}

// slotOf returns tile i's neighbor-slot index of tile j, or -1 when j is
// not a neighbor.
func (e *Emulator) slotOf(i, j int) int {
	base := i * maxNbrs
	for s := 0; s < int(e.nbrCount[i]); s++ {
		if int(e.nbrs[base+s]) == j {
			return s
		}
	}
	return -1
}

// nextRRPartner advances tile i's round-robin cursor to the next live
// neighbor and returns it, or -1 when every neighbor is tombstoned. With no
// tombstones the visit sequence is exactly the pre-tombstone emulator's.
func (e *Emulator) nextRRPartner(i int) int {
	nc := int(e.nbrCount[i])
	if e.liveNbrs[i] == 0 || nc == 0 {
		return -1
	}
	for k := 0; k < nc; k++ {
		s := int(e.rr[i]) % nc
		e.rr[i]++
		if e.nbrDeadMask[i]&(1<<s) == 0 {
			return int(e.nbrs[i*maxNbrs+s])
		}
	}
	return -1
}

// observeNeighbor records a neighbor's reported coin count for the thermal
// guard.
func (e *Emulator) observeNeighbor(i, from int, has int64) {
	if e.cfg.ThermalCap <= 0 {
		return
	}
	if s := e.slotOf(i, from); s >= 0 {
		e.nbrHas[i*maxNbrs+s] = has
		e.nbrSeenMask[i] |= 1 << s
	}
}

// neighborhoodLoad returns the tile's own count plus the last observed
// counts of its neighbors — the quantity the thermal cap bounds.
func (e *Emulator) neighborhoodLoad(i int) int64 {
	load := e.has[i]
	base := i * maxNbrs
	seen := e.nbrSeenMask[i]
	for s := 0; s < int(e.nbrCount[i]); s++ {
		if seen&(1<<s) != 0 {
			load += e.nbrHas[base+s]
		}
	}
	return load
}

// thermalClamp limits the coins tile i may accept in an exchange that
// would move it from has[i] to proposed, returning the allowed new count.
// Giving coins away is never restricted.
func (e *Emulator) thermalClamp(i int, proposed int64) int64 {
	if e.cfg.ThermalCap <= 0 || proposed <= e.has[i] {
		return proposed
	}
	headroom := e.cfg.ThermalCap - e.neighborhoodLoad(i)
	if headroom < 0 {
		headroom = 0
	}
	if gain := proposed - e.has[i]; gain > headroom {
		e.thermalRejects++
		return e.has[i] + headroom
	}
	return proposed
}

// Init loads the initial assignment and schedules the first exchange of each
// tile at a random phase within one refresh interval, breaking lockstep as
// independent hardware FSMs would.
func (e *Emulator) Init(a Assignment) {
	a.validate(e.n)
	if e.initialized {
		panic("coin: Init called twice; create a new Emulator per run")
	}
	e.initialized = true
	copy(e.has, a.Has)
	copy(e.max, a.Max)
	for _, h := range a.Has {
		e.poolTarget += h
	}
	if e.armInjector {
		e.injector.Arm(e.kernel)
	}
	e.recomputeError()
	e.checkConvergence()
	for i := 0; i < e.n; i++ {
		phase := sim.Cycles(e.src.Int63n(int64(e.cfg.RefreshInterval))) + 1
		e.kernel.ScheduleOp(phase, e.opTick, int32(i), 0)
	}
	if e.hardened {
		e.kernel.ScheduleOp(e.timing.auditInterval, e.opAudit, 0, 0)
	}
}

// errTerm computes one tile's contribution to the convergence metric under
// the configured cap and deficit rules.
func (e *Emulator) errTerm(has, max int64) float64 {
	target := e.alpha * float64(max)
	if e.cfg.CoinCap > 0 && target > float64(e.cfg.CoinCap) {
		target = float64(e.cfg.CoinCap)
	}
	if e.cfg.DeficitOnly {
		// A tile cannot use more than its own max: under budget abundance
		// (alpha > 1) it is satisfied once it can run at full target power.
		if target > float64(max) {
			target = float64(max)
		}
		if d := target - float64(has); d > 0 {
			return d
		}
		return 0
	}
	return math.Abs(float64(has) - target)
}

// recomputeError rebuilds the incremental error state from scratch. The
// coin pool is conserved and targets only change through SetMax, so alpha is
// constant between recomputations and per-exchange updates stay O(1).
func (e *Emulator) recomputeError() {
	e.sumHas, e.sumMax, e.activeCount, e.liveCount = 0, 0, 0, 0
	for i := 0; i < e.n; i++ {
		if e.flags[i]&fDead != 0 {
			continue
		}
		e.liveCount++
		e.sumHas += e.has[i]
		e.sumMax += e.max[i]
		if e.max[i] > 0 {
			e.activeCount++
		}
	}
	if e.sumMax > 0 {
		e.alpha = float64(e.sumHas) / float64(e.sumMax)
	} else {
		e.alpha = 0
	}
	e.errSum = 0
	for i := 0; i < e.n; i++ {
		if e.flags[i]&fDead != 0 {
			e.errTerms[i] = 0
			continue
		}
		e.errTerms[i] = e.errTerm(e.has[i], e.max[i])
		e.errSum += e.errTerms[i]
	}
}

// globalErr returns the current global error E: the mean per-tile error in
// the paper's symmetric mode, or the mean per-active-tile deficit in
// deficit-only mode (so the threshold reads "average active tile within one
// coin of its usable target" regardless of how many idle tiles surround
// them).
func (e *Emulator) globalErr() float64 {
	if e.cfg.DeficitOnly {
		n := e.activeCount
		if n == 0 {
			n = 1
		}
		return e.errSum / float64(n)
	}
	n := e.liveCount
	if n == 0 {
		n = 1
	}
	return e.errSum / float64(n)
}

// setHas applies a coin-count change and maintains the error metric,
// movement clock, and convergence detection.
func (e *Emulator) setHas(i int, v int64) {
	// A stuck coin register silently absorbs writes — the fault the audit
	// exists to detect. A dead tile's register is gone entirely.
	if e.flags[i]&(fStuck|fDead) != 0 {
		return
	}
	if e.has[i] == v {
		return
	}
	e.has[i] = v
	nt := e.errTerm(v, e.max[i])
	e.errSum += nt - e.errTerms[i]
	e.errTerms[i] = nt
	e.lastMovement = e.kernel.Now()
	e.checkConvergence()
	if e.onChange != nil {
		e.onChange(i, v)
	}
}

// SetOnChange registers an observer for applied coin-count changes.
func (e *Emulator) SetOnChange(fn func(tile int, has int64)) { e.onChange = fn }

func (e *Emulator) checkConvergence() {
	if !e.converged && e.globalErr() < e.cfg.Threshold {
		e.converged = true
		e.convergedAt = e.kernel.Now()
		e.pktsAtConv = e.net.Stats().Sent
		if e.onConverged != nil {
			e.onConverged(e.convergedAt - e.lastChangeFrom)
		}
	}
}

// SetOnConverged registers an observer for convergence events; it receives
// the response time relative to the last activity change.
func (e *Emulator) SetOnConverged(fn func(response sim.Cycles)) { e.onConverged = fn }

// SetMax changes a tile's target at runtime — the start or end of a
// workload phase (Sec. III-A: max is set when execution begins and 0 when it
// ends). It re-arms convergence detection so the next crossing measures the
// response to this activity change.
func (e *Emulator) SetMax(tile int, max int64) {
	if max < 0 {
		panic("coin: negative max")
	}
	// A dead tile has no target: its FSM is gone and its max is already
	// excluded from the error metric.
	if e.flags[tile]&fDead != 0 {
		return
	}
	e.max[tile] = max
	e.recomputeError()
	e.converged = false
	e.convergedAt = 0
	e.lastChangeFrom = e.kernel.Now()
	e.lastMovement = e.kernel.Now()
	// The activity change resets the tile's dynamic-timing back-off and
	// triggers an immediate exchange: the start/end of execution is
	// precisely the event the FSM reacts to (Sec. III-A), so it does not
	// wait out a steady-state interval.
	e.interval[tile] = e.cfg.RefreshInterval
	if e.initialized && e.flags[tile]&(fBusy|fLocked) == 0 {
		e.kernel.ScheduleOp(1, e.opTick, int32(tile), 0)
	}
	e.checkConvergence()
}

// ResponseCycles returns the cycles from the last SetMax (or Init) to the
// following convergence, or 0 if not yet converged.
func (e *Emulator) ResponseCycles() sim.Cycles {
	if !e.converged {
		return 0
	}
	return e.convergedAt - e.lastChangeFrom
}

// Snapshot returns copies of the current has and max vectors.
func (e *Emulator) Snapshot() (has, max []int64) {
	has = make([]int64, e.n)
	max = make([]int64, e.n)
	copy(has, e.has)
	copy(max, e.max)
	return has, max
}

// Kernel exposes the simulation clock, mainly for harnesses that interleave
// activity changes with Run.
func (e *Emulator) Kernel() *sim.Kernel { return e.kernel }

// ThermalRejects returns how many exchanges were clamped by the thermal
// hotspot guard.
func (e *Emulator) ThermalRejects() uint64 { return e.thermalRejects }

// TileDead reports whether tile i has fail-stopped.
func (e *Emulator) TileDead(i int) bool { return e.flags[i]&fDead != 0 }

// NetworkStats returns the NoC statistics so far.
func (e *Emulator) NetworkStats() noc.Stats { return e.net.Stats() }

// tick is one exchange attempt by tile i. The next tick reschedules at the
// interval in effect when this one fired (matching the hardware's periodic
// FSM), after any packets this attempt pushed — so intra-cycle event order
// is exactly the schedule order.
func (e *Emulator) tick(i int) {
	// A dead tile's FSM is gone: stop the tick chain entirely.
	if e.flags[i]&fDead != 0 {
		return
	}
	d := e.effInterval(i)
	e.tickAttempt(i)
	e.kernel.ScheduleOp(d, e.opTick, int32(i), 0)
}

// tickAttempt is the body of one exchange attempt. A tile whose previous
// exchange is still in flight skips this slot, as the hardware FSM would.
func (e *Emulator) tickAttempt(i int) {
	// Frozen: the end-of-run settle phase stops new initiations so in-flight
	// exchanges can drain; the tick chain stays alive for later Run calls.
	if e.frozen {
		return
	}
	if e.flags[i]&(fBusy|fLocked) != 0 || e.liveNbrs[i] == 0 {
		return
	}
	useRandom := e.cfg.RandomPairing && (int(e.exchCnt[i])+1)%e.cfg.RandomPairingEvery == 0
	// A tile in the relinquish state — execution ended (max 0) but coins
	// still held — gains nothing from neighbors that are also idle, so it
	// seeks a taker anywhere on the SoC every exchange. This is what
	// returns orphaned coins to newly active tiles quickly.
	if e.cfg.RandomPairing && e.max[i] == 0 && e.has[i] > 0 {
		useRandom = true
	}
	e.exchCnt[i]++
	e.exchanges++
	if e.cfg.Mode == FourWay && !useRandom {
		e.startFourWay(i)
		return
	}
	partner := e.choosePartner(i, useRandom)
	if partner < 0 {
		// Every candidate partner is known dead; keep ticking — the audit
		// still rebalances the pool around this tile.
		return
	}
	e.startOneWay(i, partner)
}

// effInterval is the tile's exchange interval with any fail-slow stretch.
func (e *Emulator) effInterval(i int) sim.Cycles {
	if e.slow[i] > 1 {
		return sim.Cycles(float64(e.interval[i]) * e.slow[i])
	}
	return e.interval[i]
}

// send puts one coin message from src to dst on the PM plane. The NoC
// routes it; the emulator keeps it in a record until its arrival op runs,
// and an injected duplicate gets a second record, flagged dup, that lands
// after the original. It reports whether the fabric will deliver the
// message, which only the in-flight accounting may use.
func (e *Emulator) send(kind noc.Kind, src, dst int, msg CoinMsg) bool {
	at, dupAt, hops, ok := e.net.Route(noc.PlanePM, kind, src, dst, 1)
	if !ok {
		return false
	}
	r, m := e.msgs.Take()
	*m = message{msg: msg, injected: e.kernel.Now(), src: int32(src), hops: int32(hops), kind: kind}
	e.kernel.AtOp(at, e.opArrive, int32(dst), uint64(r))
	if dupAt > 0 {
		d, dm := e.msgs.Take()
		*dm = *m
		dm.dup = true
		e.kernel.AtOp(dupAt, e.opArrive, int32(dst), uint64(d))
	}
	return true
}

// arrive lands the message in record r at tile: the NoC credits its
// delivery and the tile handles it. The record is freed only after the
// handler returns, since the handler sends messages of its own.
func (e *Emulator) arrive(tile int, r int32) {
	m := e.msgs.At(r)
	e.net.Arrive(m.injected, int(m.hops))
	e.onMessage(tile, m)
	e.msgs.Free(r)
}

// sendUpdate emits a coin-update message and tracks nonzero deltas in
// flight. Only messages the fabric actually carries are counted: this
// accounting is the simulator's omniscient view (used for quiescence
// detection and the conservation audit), not information available to any
// tile's FSM.
func (e *Emulator) sendUpdate(src, dst int, delta int64, ack bool, seq uint64) {
	sent := e.send(noc.KindCoinUpdate, src, dst, CoinMsg{Delta: delta, Ack: ack, Seq: seq})
	if sent && delta != 0 {
		e.nonzeroInFlight++
		e.inFlightDelta += delta
	}
}

// choosePartner returns tile i's next exchange partner: the round-robin
// neighbor, or a non-neighbor under random pairing. Partners pruned as dead
// are excluded; -1 means no live candidate exists.
func (e *Emulator) choosePartner(i int, random bool) int {
	if !random {
		return e.nextRRPartner(i)
	}
	n := e.n
	// Small meshes can have every other tile as a neighbor; fall back to
	// the round-robin neighbor.
	if int(e.nbrCount[i]) >= n-1 {
		return e.nextRRPartner(i)
	}
	var farDead map[int]bool
	if e.farDead != nil {
		farDead = e.farDead[i]
	}
	// With pruned partners the search loops need a bound: liveness is
	// local knowledge, and a heavily damaged mesh may leave no eligible
	// non-neighbor. The bound only engages once something was pruned, so
	// healthy runs keep the original draw sequence exactly.
	bounded := e.flags[i]&fPruned != 0
	switch e.cfg.Pairing {
	case PairShiftRegister:
		// Walk the offset register until it lands on a non-neighbor. The
		// register visits every offset, guaranteeing any (a, b) pair with
		// opposing errors is eventually paired (Sec. III-E).
		for tries := 0; ; tries++ {
			j := (i + int(e.srOffset[i])) % n
			e.srOffset[i] = e.srOffset[i]%int32(n-1) + 1
			if j != i && e.slotOf(i, j) < 0 && !farDead[j] {
				return j
			}
			if bounded && tries >= n {
				return e.nextRRPartner(i)
			}
		}
	default: // PairUniform
		for tries := 0; ; tries++ {
			j := e.src.Intn(n)
			if j != i && e.slotOf(i, j) < 0 && !farDead[j] {
				return j
			}
			if bounded && tries >= 4*n {
				return e.nextRRPartner(i)
			}
		}
	}
}

// startOneWay initiates Algorithm 2 with the chosen partner: send our
// status; the partner computes the split, applies its side, and returns our
// delta. Two messages per exchange — 8 per four-neighbor rotation.
func (e *Emulator) startOneWay(i, partner int) {
	e.flags[i] |= fBusy
	e.busyCount++
	e.seqNo[i]++
	e.curPartner[i] = int32(partner)
	e.send(noc.KindCoinStatus, i, partner, CoinMsg{Has: e.has[i], Max: e.max[i], Seq: e.seqNo[i]})
	e.armExchangeTimeout(i)
}

// startFourWay initiates Algorithm 1: request status from every live
// neighbor, then split the group's coins. Three messages per neighbor — 12
// per exchange on an interior tile.
func (e *Emulator) startFourWay(i int) {
	e.flags[i] |= fBusy | fPendActive
	e.busyCount++
	e.seqNo[i]++
	e.pendMask[i] = 0
	e.pendWant[i] = e.liveNbrs[i]
	base := i * maxNbrs
	for s := 0; s < int(e.nbrCount[i]); s++ {
		if e.nbrDeadMask[i]&(1<<s) == 0 {
			e.send(noc.KindCoinRequest, i, int(e.nbrs[base+s]), CoinMsg{Seq: e.seqNo[i]})
		}
	}
	e.armExchangeTimeout(i)
}

// armExchangeTimeout schedules the hardened initiator's retry timer for the
// exchange the tile just started.
func (e *Emulator) armExchangeTimeout(i int) {
	if !e.hardened {
		return
	}
	e.kernel.ScheduleOp(e.timing.exchangeTimeout, e.opTimeout, int32(i), e.seqNo[i])
}

// exchangeTimeout abandons an exchange whose completion never arrived:
// release busy so the tile's FSM is not stranded, back its interval off, and
// strike the silent partner(s) for liveness tracking. Any late ack is
// recognized as stale by its sequence number; any late delta still applies
// (deltas always conserve), and the audit repairs whatever was lost in the
// fabric.
func (e *Emulator) exchangeTimeout(i int, seq uint64) {
	if e.flags[i]&fDead != 0 || e.flags[i]&fBusy == 0 || e.seqNo[i] != seq {
		return
	}
	e.retries++
	if e.flags[i]&fPendActive != 0 {
		// Release the neighbors that did join the group with zero-delta
		// updates, and strike the ones that never answered. Tombstoning
		// never moves slots, so this iteration is safe against the pruning
		// strikePartner may do mid-loop.
		base := i * maxNbrs
		for s := 0; s < int(e.nbrCount[i]); s++ {
			if e.nbrDeadMask[i]&(1<<s) != 0 {
				continue
			}
			switch {
			case e.pendMask[i]&(1<<s) == 0:
				e.strikePartner(i, int(e.nbrs[base+s]))
			case !e.pend[base+s].Nack:
				e.sendUpdate(i, int(e.nbrs[base+s]), 0, false, seq)
			}
		}
		e.flags[i] &^= fPendActive
		e.pendMask[i] = 0
	} else {
		e.strikePartner(i, int(e.curPartner[i]))
	}
	e.flags[i] &^= fBusy
	e.busyCount--
	// Exponential retry back-off: a tile facing a lossy or partitioned
	// fabric slows down instead of spamming it.
	ni := e.interval[i] * retryBackoff
	if ni > e.timing.maxInterval {
		ni = e.timing.maxInterval
	}
	e.interval[i] = ni
}

// strikePartner records a timed-out exchange against a partner; after
// neighborDeadAfter consecutive strikes the partner is pruned from the
// tile's pairing sets (wrap-around partners take over). Neighbor partners
// are tombstoned in place — their slot index stays valid for any iteration
// or reply in flight — and non-neighbor partners (random pairing) go to the
// lazy far maps.
func (e *Emulator) strikePartner(i, partner int) {
	if partner < 0 {
		return
	}
	if s := e.slotOf(i, partner); s >= 0 {
		e.nbrFailCnt[i*maxNbrs+s]++
		if int(e.nbrFailCnt[i*maxNbrs+s]) < neighborDeadAfter || e.nbrDeadMask[i]&(1<<s) != 0 {
			return
		}
		e.nbrDeadMask[i] |= 1 << s
		e.liveNbrs[i]--
		e.flags[i] |= fPruned
		e.nbrsPruned++
		return
	}
	if e.farFail == nil {
		e.farFail = make([]map[int]int, e.n)
		e.farDead = make([]map[int]bool, e.n)
	}
	if e.farFail[i] == nil {
		e.farFail[i] = make(map[int]int)
	}
	e.farFail[i][partner]++
	if e.farFail[i][partner] < neighborDeadAfter {
		return
	}
	if e.farDead[i] == nil {
		e.farDead[i] = make(map[int]bool)
	}
	if !e.farDead[i][partner] {
		e.farDead[i][partner] = true
		e.flags[i] |= fPruned
		e.nbrsPruned++
	}
}

// onMessage handles a coin message landing at tile.
func (e *Emulator) onMessage(tile int, m *message) {
	from := int(m.src)
	// A message can be in flight when its destination fail-stops: the dead
	// tile absorbs it. The omniscient in-flight accounting still settles —
	// the coins it carried are gone, which the audit detects and re-mints.
	if e.flags[tile]&fDead != 0 {
		if m.kind == noc.KindCoinUpdate {
			if d := m.msg.Delta; d != 0 && !m.dup {
				e.nonzeroInFlight--
				e.inFlightDelta -= d
			}
		}
		return
	}
	switch m.kind {
	case noc.KindCoinRequest:
		seq := m.msg.Seq
		// 4-way: join the center's group if free, else refuse. Joining
		// freezes our coin count until the center's update releases us.
		if e.flags[tile]&(fBusy|fLocked) != 0 {
			e.send(noc.KindCoinStatus, tile, from, CoinMsg{Reply: true, Nack: true, Seq: seq})
			return
		}
		e.lockTile(tile, from)
		e.send(noc.KindCoinStatus, tile, from,
			CoinMsg{Has: e.has[tile], Max: e.max[tile], Reply: true, Seq: seq})
	case noc.KindCoinStatus:
		if m.msg.Reply {
			e.onFourWayStatus(tile, from, m.msg)
		} else {
			e.onOneWayInitiate(tile, from, m.msg)
		}
	case noc.KindCoinUpdate:
		msg := m.msg
		// A fault-injected duplicate applies its delta twice — that IS the
		// fault — but the fabric accounting settles only once.
		if msg.Delta != 0 && !m.dup {
			e.nonzeroInFlight--
			e.inFlightDelta -= msg.Delta
		}
		e.setHas(tile, e.has[tile]+msg.Delta)
		if msg.Ack {
			// Completion of our 1-way initiation. The sequence check
			// rejects a late ack for an attempt the timeout already
			// abandoned (its delta above still applied — conservation).
			if e.flags[tile]&fBusy != 0 && e.flags[tile]&fPendActive == 0 && msg.Seq == e.seqNo[tile] {
				e.flags[tile] &^= fBusy
				e.busyCount--
				if s := e.slotOf(tile, from); s >= 0 {
					e.nbrFailCnt[tile*maxNbrs+s] = 0
				} else if e.farFail != nil && e.farFail[tile] != nil {
					delete(e.farFail[tile], from)
				}
				e.adjustTiming(tile, msg.Delta)
			}
		} else {
			// A 4-way center's push releases our participation lock; a
			// productive push also resets our back-off so the activity
			// ripple propagates at full speed (Sec. III-D). Hardened: only
			// the lock's owner may release it, so a straggler push from a
			// center we already gave up on can't break a newer lock.
			if !e.hardened || e.flags[tile]&fLocked == 0 || int(e.lockFrom[tile]) == from {
				e.unlockTile(tile)
			}
			e.adjustTiming(tile, msg.Delta)
		}
	}
}

// lockTile freezes tile i's coins on behalf of a 4-way center. Hardened, a
// watchdog frees the lock if the center dies before its update arrives.
func (e *Emulator) lockTile(i, center int) {
	e.flags[i] |= fLocked
	e.lockFrom[i] = int32(center)
	e.lockSeq[i]++
	e.lockedCount++
	if e.hardened {
		e.kernel.ScheduleOp(e.timing.lockTimeout, e.opWatchdog, int32(i), e.lockSeq[i])
	}
}

// unlockTile releases tile i's participation lock if held.
func (e *Emulator) unlockTile(i int) {
	if e.flags[i]&fLocked != 0 {
		e.flags[i] &^= fLocked
		e.lockedCount--
	}
}

// lockWatchdog frees a tile whose 4-way center died (or whose release was
// lost in the fabric): without it the tile would refuse every exchange
// forever. The lock epoch guards against breaking a newer lock.
func (e *Emulator) lockWatchdog(i int, lockSeq uint64) {
	if e.flags[i]&fDead != 0 || e.flags[i]&fLocked == 0 || e.lockSeq[i] != lockSeq {
		return
	}
	e.unlockTile(i)
	e.locksBroken++
	// The center is suspect: strike it so a repeatedly dying or silent
	// center is eventually pruned from our pairing sets.
	e.strikePartner(i, int(e.lockFrom[i]))
}

// onOneWayInitiate runs the receiver side of Algorithm 2: split against the
// initiator's reported state, apply our half, return theirs as a delta.
func (e *Emulator) onOneWayInitiate(i, from int, msg CoinMsg) {
	// A locked tile's coins are spoken for by a 4-way center; refuse the
	// exchange with a zero-coin ack so the initiator completes cleanly.
	if e.flags[i]&fLocked != 0 {
		e.sendUpdate(i, from, 0, true, msg.Seq)
		return
	}
	e.observeNeighbor(i, from, msg.Has)
	newI, newJ := PairSplit(msg.Has, msg.Max, e.has[i], e.max[i])
	// The hardware coin register cannot hold more than the cap; the
	// residue of a clamped transfer stays with the partner, conserving the
	// pool.
	if cap := e.cfg.CoinCap; cap > 0 {
		total := newI + newJ
		if newI > cap {
			newI = cap
			newJ = total - cap
		} else if newJ > cap {
			newJ = cap
			newI = total - cap
		}
	}
	// Thermal hotspot guard: refuse coins beyond the neighborhood cap;
	// the refused residue stays with the initiator.
	{
		total := newI + newJ
		clamped := e.thermalClamp(i, newJ)
		if clamped != newJ {
			newJ = clamped
			newI = total - newJ
		}
	}
	deltaI := newI - msg.Has
	deltaJ := newJ - e.has[i]
	// A stuck register cannot apply its side of the split: sending the
	// initiator its full delta anyway would double those coins. Refuse the
	// exchange instead (zero-delta ack); the drifted residue from splits
	// that already happened is the audit's problem, not new exchanges'.
	if e.flags[i]&fStuck != 0 {
		e.sendUpdate(i, from, 0, true, msg.Seq)
		return
	}
	e.setHas(i, newJ)
	e.sendUpdate(i, from, deltaI, true, msg.Seq)
	// The receiver also observes whether the exchange was productive, so
	// both parties' dynamic timing reacts — a coin wave travelling across
	// the mesh keeps every tile it touches at the fast exchange rate.
	e.adjustTiming(i, deltaJ)
}

// onFourWayStatus collects a neighbor's reply; when all polled neighbors
// have answered, compute the group split and push each neighbor's delta.
func (e *Emulator) onFourWayStatus(i, from int, msg CoinMsg) {
	slot := e.slotOf(i, from)
	if e.flags[i]&fPendActive == 0 || msg.Seq != e.seqNo[i] || slot < 0 {
		// Stale reply: the attempt it answers was completed, aborted, or
		// abandoned by timeout. Hardened, a non-nack straggler gets an
		// immediate zero-delta release — the responder locked itself for
		// nothing and should not have to wait for its watchdog.
		if e.hardened && !msg.Nack && msg.Seq != e.seqNo[i] {
			e.sendUpdate(i, from, 0, false, msg.Seq)
		}
		return
	}
	base := i * maxNbrs
	if !msg.Nack {
		e.observeNeighbor(i, from, msg.Has)
		e.nbrFailCnt[base+slot] = 0
	}
	e.pend[base+slot] = msg
	e.pendMask[i] |= 1 << slot
	if bits.OnesCount8(e.pendMask[i]) < int(e.pendWant[i]) {
		return
	}
	// If any neighbor refused, abort: release the ones that did join with
	// zero-delta updates and retry on a later tick. This is the conflict
	// resolution that makes overlapping group exchanges safe. Slots are
	// visited in N/E/S/W order, so the release-packet order — and thus NoC
	// contention — is identical between identically seeded runs.
	nc := int(e.nbrCount[i])
	anyNack := false
	for s := 0; s < nc; s++ {
		if e.pendMask[i]&(1<<s) != 0 && e.pend[base+s].Nack {
			anyNack = true
			break
		}
	}
	if anyNack {
		for s := 0; s < nc; s++ {
			if e.pendMask[i]&(1<<s) != 0 && !e.pend[base+s].Nack {
				e.sendUpdate(i, int(e.nbrs[base+s]), 0, false, e.seqNo[i])
			}
		}
		e.flags[i] &^= fPendActive | fBusy
		e.pendMask[i] = 0
		e.busyCount--
		e.adjustTiming(i, 0)
		return
	}
	g := &e.split
	g.has[0], g.max[0] = e.has[i], e.max[i]
	m := 1
	for s := 0; s < nc; s++ {
		if e.pendMask[i]&(1<<s) != 0 {
			g.has[m], g.max[m] = e.pend[base+s].Has, e.pend[base+s].Max
			m++
		}
	}
	has, out := g.has[:m], g.out[:m]
	groupSplit(has, g.max[:m], out, g.rems[:m])
	var moved int64
	e.setHas(i, out[0])
	moved += abs64(out[0] - has[0])
	k := 0
	for s := 0; s < nc; s++ {
		if e.pendMask[i]&(1<<s) == 0 {
			continue
		}
		k++
		delta := out[k] - has[k]
		moved += abs64(delta)
		e.sendUpdate(i, int(e.nbrs[base+s]), delta, false, e.seqNo[i])
	}
	e.flags[i] &^= fPendActive | fBusy
	e.pendMask[i] = 0
	e.busyCount--
	e.adjustTiming(i, moved)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// killTile fail-stops a tile (injector callback): its FSM halts, its flags
// release, and its coins leave the live pool — stranded budget the audit
// re-mints onto survivors, so the full power budget stays allocatable.
// The kill counts as an activity change: convergence re-arms and the next
// threshold crossing measures the re-convergence after the fault.
func (e *Emulator) killTile(i int) {
	if e.flags[i]&fDead != 0 {
		return
	}
	e.flags[i] |= fDead
	e.tilesDead++
	if e.flags[i]&fBusy != 0 {
		e.flags[i] &^= fBusy
		e.busyCount--
	}
	e.unlockTile(i)
	e.flags[i] &^= fPendActive
	e.pendMask[i] = 0
	e.recomputeError()
	e.converged = false
	e.convergedAt = 0
	e.lastChangeFrom = e.kernel.Now()
	e.lastMovement = e.kernel.Now()
	e.checkConvergence()
}

// audit is the periodic distributed coin-conservation check: compare the
// live pool (plus deltas still travelling the fabric) against the initial
// pool, then re-mint the leak or burn the surplus against each tile's local
// target. In hardware each tile would fold its (has, max) into a spanning
// accumulation wave on the PM plane; the emulator computes the same sums
// directly. Repairs apply deterministically: most-deficient tiles receive
// minted coins first, most-surplus tiles burn first, ties broken by index.
func (e *Emulator) audit() {
	if e.liveCount > 0 {
		e.runAudit()
	}
	e.kernel.ScheduleOp(e.timing.auditInterval, e.opAudit, 0, 0)
}

// auditCand is one audit repair candidate: a live tile with a working
// register, ranked by how far below its local target it sits.
type auditCand struct {
	id   int
	need float64 // target minus has: positive wants coins
}

func (e *Emulator) runAudit() {
	var liveSum int64
	for i := 0; i < e.n; i++ {
		if e.flags[i]&fDead == 0 {
			liveSum += e.has[i]
		}
	}
	diff := e.poolTarget - liveSum - e.inFlightDelta
	if diff == 0 {
		return
	}
	e.auditRepairs++
	// Candidates: live tiles with working registers. A stuck register
	// cannot be repaired in place; its drift is repaired on its peers.
	if e.auditCands == nil {
		e.auditCands = make([]auditCand, 0, e.liveCount)
	}
	cands := e.auditCands[:0]
	for i := 0; i < e.n; i++ {
		if e.flags[i]&(fDead|fStuck) != 0 {
			continue
		}
		target := e.alpha * float64(e.max[i])
		if e.cfg.CoinCap > 0 && target > float64(e.cfg.CoinCap) {
			target = float64(e.cfg.CoinCap)
		}
		cands = append(cands, auditCand{id: i, need: target - float64(e.has[i])})
	}
	e.auditCands = cands
	if len(cands) == 0 {
		return
	}
	if diff > 0 {
		// Leak: re-mint onto the most deficient tiles, respecting the cap.
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].need != cands[b].need {
				return cands[a].need > cands[b].need
			}
			return cands[a].id < cands[b].id
		})
		remaining := diff
		for _, c := range cands {
			if remaining == 0 {
				break
			}
			grant := remaining
			if e.cfg.CoinCap > 0 {
				if room := e.cfg.CoinCap - e.has[c.id]; room < grant {
					grant = room
				}
			}
			if grant <= 0 {
				continue
			}
			e.setHas(c.id, e.has[c.id]+grant)
			e.coinsMinted += grant
			remaining -= grant
		}
		// Any residue (every tile at cap) waits for the next audit.
	} else {
		// Duplication: burn the surplus from the most over-target tiles.
		// This is what re-enforces the global power cap after a fault
		// created coins from thin air.
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].need != cands[b].need {
				return cands[a].need < cands[b].need
			}
			return cands[a].id < cands[b].id
		})
		remaining := -diff
		for _, c := range cands {
			if remaining == 0 {
				break
			}
			take := remaining
			if e.has[c.id] < take {
				take = e.has[c.id]
			}
			if take <= 0 {
				continue
			}
			e.setHas(c.id, e.has[c.id]-take)
			e.coinsBurned += take
			remaining -= take
		}
	}
}

// adjustTiming applies the dynamic-timing rule (Sec. III-D): zero-coin
// exchanges back off multiplicatively by lambda, but only once a full
// rotation's worth of consecutive exchanges was unproductive — a tile that
// is still converging probes empty neighbors half the time, and stalling it
// on the first miss would slow the transient it exists to speed up.
// Productive exchanges snap a backed-off tile to the base refresh interval,
// then shrink it by shrinkK per exchange down to minInterval.
func (e *Emulator) adjustTiming(i int, moved int64) {
	if !e.cfg.DynamicTiming {
		return
	}
	if moved == 0 {
		// A relinquishing tile keeps probing at full rate until its
		// orphaned coins find a taker.
		if e.max[i] == 0 && e.has[i] > 0 {
			e.interval[i] = e.cfg.RefreshInterval
			return
		}
		e.zeroStreak[i]++
		if e.zeroStreak[i] < 4 {
			return
		}
		ni := e.interval[i] * lambda
		if ni > e.timing.maxInterval {
			ni = e.timing.maxInterval
		}
		e.interval[i] = ni
	} else {
		e.zeroStreak[i] = 0
		// Snap a backed-off tile to the base rate, then accelerate below
		// it: converging regions exchange faster than the base rate.
		ni := e.interval[i]
		if ni > e.cfg.RefreshInterval {
			ni = e.cfg.RefreshInterval
		}
		if ni > e.timing.minInterval+e.timing.shrinkK {
			ni -= e.timing.shrinkK
		} else {
			ni = e.timing.minInterval
		}
		e.interval[i] = ni
	}
}

// Run executes the emulator until convergence (when StopAtConvergence),
// quiescence, or the MaxCycles bound, and returns the run summary.
func (e *Emulator) Run() Result {
	if !e.initialized {
		panic("coin: Run before Init")
	}
	has, max := e.Snapshot()
	startErr, _ := GlobalError(has, max)
	var coinsStart int64
	for _, h := range has {
		coinsStart += h
	}

	// MaxCycles is a per-Run budget so activity-change experiments can
	// chain SetMax and Run repeatedly.
	deadline := e.kernel.Now() + e.cfg.MaxCycles
	stop := func() bool {
		now := e.kernel.Now()
		if now >= deadline {
			return true
		}
		if e.cfg.StopAtConvergence && e.converged {
			return true
		}
		// Quiescent: no coin has moved for a full window and no nonzero
		// transfer is in flight. Zero-coin keep-alive chatter continues in
		// steady state and must not prevent the run from ending.
		if e.nonzeroInFlight == 0 && now-e.lastMovement > e.timing.quiesceWindow {
			return true
		}
		return false
	}
	e.kernel.RunUntil(stop, 0)
	// A deadline stop can leave transfers in flight; drain them so the
	// reported pool is conserved. The event budget bounds the drain even
	// if the model misbehaves.
	if e.nonzeroInFlight > 0 {
		e.kernel.RunUntil(func() bool { return e.nonzeroInFlight == 0 }, 1<<20)
	}
	// Hardened runs settle before reporting: freeze new exchange initiation
	// and let the in-flight work drain. Every busy flag has an armed timeout
	// and every lock has a watchdog, so the drain is bounded by
	// the lock timeout plus flight time — a flag that survives it is genuinely
	// stranded, not a keep-alive transient. A final audit then repairs any
	// damage postdating the last periodic one.
	if e.hardened {
		e.frozen = true
		if e.busyCount > 0 || e.lockedCount > 0 || e.nonzeroInFlight > 0 {
			e.kernel.RunUntil(func() bool {
				return e.busyCount == 0 && e.lockedCount == 0 && e.nonzeroInFlight == 0
			}, 1<<20)
		}
		e.runAudit()
		e.frozen = false
	}

	has, max = e.Snapshot()
	finalErr, worst := e.liveGlobalError(has, max)
	var coinsEnd int64
	for i, h := range has {
		if e.flags[i]&fDead == 0 {
			coinsEnd += h
		}
	}
	r := Result{
		Converged:            e.converged,
		ConvergenceCycles:    e.convergedAt,
		PacketsToConvergence: e.pktsAtConv,
		StartErr:             startErr,
		FinalErr:             finalErr,
		WorstTileErr:         worst,
		EndCycles:            e.kernel.Now(),
		TotalPackets:         e.net.Stats().Sent,
		Exchanges:            e.exchanges,
		CoinsStart:           coinsStart,
		CoinsEnd:             coinsEnd,
		PoolViolation:        e.poolTarget - coinsEnd - e.inFlightDelta,
		Dropped:              e.net.Stats().PerPlaneDropped[noc.PlanePM],
		Retries:              e.retries,
		LocksBroken:          e.locksBroken,
		NbrsPruned:           e.nbrsPruned,
		TilesDead:            e.tilesDead,
		AuditRepairs:         e.auditRepairs,
		CoinsMinted:          e.coinsMinted,
		CoinsBurned:          e.coinsBurned,
	}
	return r
}

// liveGlobalError computes the end-of-run error over live tiles only: a
// fail-stopped tile has neither a target nor a register to be wrong.
func (e *Emulator) liveGlobalError(has, max []int64) (float64, float64) {
	if e.tilesDead == 0 {
		return GlobalError(has, max)
	}
	lh := make([]int64, 0, e.liveCount)
	lm := make([]int64, 0, e.liveCount)
	for i := range has {
		if e.flags[i]&fDead == 0 {
			lh = append(lh, has[i])
			lm = append(lm, max[i])
		}
	}
	return GlobalError(lh, lm)
}
