// Package sim implements the discrete-event simulation kernel that underlies
// every timed model in this repository: the coin-exchange emulator, the
// network-on-chip, the UVFR actuators, and the full-SoC harness.
//
// The kernel advances a cycle counter (the paper expresses all timing in NoC
// cycles at 800 MHz) and executes scheduled events in (time, sequence) order,
// so simultaneous events run in the order they were scheduled. This makes
// every simulation deterministic for a given seed, which the Monte Carlo
// experiments (Figs. 3-8) rely on.
//
// # Queue layout and batching
//
// The queue is a calendar: a ring of per-cycle buckets covering the next
// bucketCount cycles, with a small spill min-heap for events scheduled
// beyond that horizon. Nearly every event a simulation schedules lands
// within the horizon (hop latencies are 1-3 cycles, exchange intervals a few
// hundred), so push is an append and "pop" is a batch: when the clock
// advances to a cycle, that cycle's whole bucket is drained into a reused
// execution buffer and run front to back. Bucket append order is exactly
// schedule order, so intra-cycle execution order is byte-identical to the
// old binary heap's (time, sequence) order; spill events carry an explicit
// sequence number and migrate into buckets in that order as the horizon
// advances, before any newer event can target their cycle.
//
// Events are 16 bytes and pointer-free. Hot paths use typed events: a model
// registers an op handler once (RegisterOp) and schedules (op, tile, x)
// triples (ScheduleOp/AtOp) with no closure, no interface boxing, and no GC
// write barriers when events move between buckets and the run buffer.
// Closure events (Schedule/At) park their function in a freelist-backed
// side store and travel through the queue as a slot index.
package sim

import "math/bits"

// Cycles is a simulated time stamp or duration, counted in NoC clock cycles.
type Cycles = uint64

// NoCFrequencyHz is the fixed NoC clock of the evaluated SoCs (Sec. V-A):
// the CPU and NoC run at 800 MHz, the maximum NoC frequency of the
// fabricated prototype.
const NoCFrequencyHz = 800e6

// CyclesToMicros converts a cycle count at the 800 MHz NoC clock into
// microseconds.
func CyclesToMicros(c Cycles) float64 {
	return float64(c) / NoCFrequencyHz * 1e6
}

// bucketCount is the calendar horizon in cycles (a power of two). Exchange
// intervals back off to at most a few hundred cycles and NoC hops are
// single-digit, so in practice only long SoC completions and audit periods
// spill past it.
const (
	bucketCount = 1024
	bucketMask  = bucketCount - 1
)

// OpCode identifies a typed-event handler registered with RegisterOp.
type OpCode = int32

// opClosure is the reserved op for closure events; ev.tile then holds the
// side-store slot index instead of a model tile id.
const opClosure OpCode = 0

// ev is one queued event: 16 bytes, no pointers. Its execution time is
// implied by the bucket it sits in (buckets hold exactly one cycle's events
// inside the horizon), so it does not carry a timestamp.
type ev struct {
	x    uint64
	tile int32
	op   OpCode
}

// node is one arena slot: an event plus the intrusive list link. Buckets
// are (head, tail) index pairs into the arena, so neither pushing an event
// nor rotating the ring ever allocates once the arena has grown to the
// simulation's peak outstanding-event count.
type node struct {
	ev   ev
	next int32
}

// bucket is one calendar cycle's event list: arena indices, -1 when empty.
type bucket struct {
	head, tail int32
}

// spillEv is an event beyond the calendar horizon, parked in the spill heap
// with its timestamp and a sequence number that restores schedule order when
// it migrates into a bucket.
type spillEv struct {
	at  Cycles
	seq uint64
	ev  ev
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
type Kernel struct {
	now Cycles
	// executed counts events run, exposed for tests and runaway detection.
	executed uint64
	// pending counts scheduled-but-not-yet-executed events across the
	// buckets, the spill heap, and the unexecuted tail of the run buffer.
	pending int

	// buckets[t&bucketMask] lists the events for cycle t, t in
	// [now, now+bucketCount), in schedule order, linked through arena.
	// Allocated on first push. occ mirrors bucket non-emptiness as a
	// bitmap so finding the next pending cycle is a few word scans, not a
	// walk of the ring.
	buckets []bucket
	occ     [bucketCount / 64]uint64
	// arena backs every queued event; freeHead chains vacant slots through
	// node.next.
	arena    []node
	freeHead int32
	// spill holds events at or beyond now+bucketCount, as a min-heap on
	// (at, seq).
	spill []spillEv
	seq   uint64 // feeds spill sequence numbers

	// cur[curPos:] is the batch being executed: the current cycle's bucket
	// drained into one contiguous, reused buffer.
	cur    []ev
	curPos int

	// ops is the typed-event dispatch table; index 0 is the closure op.
	ops []func(tile int32, x uint64)
	// closures is the side store for parked closure events; free lists the
	// vacant slots.
	closures []func()
	free     []int32
}

// Now returns the current simulation time.
func (k *Kernel) Now() Cycles { return k.now }

// Executed returns the number of events executed so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of events waiting to run.
func (k *Kernel) Pending() int { return k.pending }

// RegisterOp adds fn to the typed-event dispatch table and returns its op
// code for ScheduleOp/AtOp. Models register their handlers once at
// construction; the two event arguments are a tile id and one extra word
// (a sequence number, a slot index — whatever the op needs).
func (k *Kernel) RegisterOp(fn func(tile int32, x uint64)) OpCode {
	if k.ops == nil {
		k.ops = make([]func(int32, uint64), 1, 8) // slot 0: closure op
	}
	k.ops = append(k.ops, fn)
	return OpCode(len(k.ops) - 1)
}

// Schedule runs fn after delay cycles (delay 0 runs it later in the current
// cycle, after all previously scheduled events for this cycle).
func (k *Kernel) Schedule(delay Cycles, fn func()) {
	k.At(k.now+delay, fn)
}

// ScheduleOp runs the registered op with (tile, x) after delay cycles: the
// zero-allocation, zero-indirection form hot models schedule their events
// through.
func (k *Kernel) ScheduleOp(delay Cycles, op OpCode, tile int32, x uint64) {
	k.AtOp(k.now+delay, op, tile, x)
}

// At runs fn at absolute time t. Scheduling in the past panics: it always
// indicates a model bug, and silently reordering would corrupt causality.
func (k *Kernel) At(t Cycles, fn func()) {
	k.push(t, ev{op: opClosure, tile: k.park(fn)})
}

// AtOp runs the registered op with (tile, x) at absolute time t; the typed
// sibling of At, with the same past-scheduling rule.
func (k *Kernel) AtOp(t Cycles, op OpCode, tile int32, x uint64) {
	k.push(t, ev{op: op, tile: tile, x: x})
}

// park stores fn in the closure side store and returns its slot.
func (k *Kernel) park(fn func()) int32 {
	if n := len(k.free) - 1; n >= 0 {
		slot := k.free[n]
		k.free = k.free[:n]
		k.closures[slot] = fn
		return slot
	}
	k.closures = append(k.closures, fn)
	return int32(len(k.closures) - 1)
}

// push enqueues e at absolute time t.
func (k *Kernel) push(t Cycles, e ev) {
	if t < k.now {
		panic("sim: event scheduled in the past")
	}
	if k.buckets == nil {
		k.buckets = make([]bucket, bucketCount)
		for i := range k.buckets {
			k.buckets[i] = bucket{head: -1, tail: -1}
		}
		k.freeHead = -1
	}
	k.pending++
	if t-k.now < bucketCount {
		k.link(t&bucketMask, e)
		return
	}
	k.seq++
	k.spill = append(k.spill, spillEv{at: t, seq: k.seq, ev: e})
	// Sift up on (at, seq).
	s := k.spill
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !spillLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// link appends e to bucket idx's event list, drawing an arena slot from the
// free chain (or growing the arena, amortized), and marks the bucket occupied.
func (k *Kernel) link(idx Cycles, e ev) {
	slot := k.freeHead
	if slot >= 0 {
		k.freeHead = k.arena[slot].next
	} else {
		k.arena = append(k.arena, node{})
		slot = int32(len(k.arena) - 1)
	}
	k.arena[slot] = node{ev: e, next: -1}
	b := &k.buckets[idx]
	if b.tail >= 0 {
		k.arena[b.tail].next = slot
	} else {
		b.head = slot
		k.occ[idx>>6] |= 1 << (idx & 63)
	}
	b.tail = slot
}

func spillLess(a, b spillEv) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// migrate moves spill events now inside the calendar horizon into their
// buckets. It pops in (at, seq) order, so per-bucket append order remains
// schedule order; it runs exactly when the clock advances, before any newer
// push can target the migrated cycles.
func (k *Kernel) migrate() {
	horizon := k.now + bucketCount
	s := k.spill
	for len(s) > 0 && s[0].at < horizon {
		top := s[0]
		n := len(s) - 1
		s[0] = s[n]
		s[n] = spillEv{}
		s = s[:n]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			if l >= n {
				break
			}
			c := l
			if r < n && spillLess(s[r], s[l]) {
				c = r
			}
			if !spillLess(s[c], s[i]) {
				break
			}
			s[i], s[c] = s[c], s[i]
			i = c
		}
		k.link(top.at&bucketMask, top.ev)
	}
	k.spill = s
}

// nextTime returns the time of the earliest pending event. Bucket events
// always precede spill events (the spill holds only beyond-horizon times),
// so the occupancy bitmap is consulted first: a cyclic scan of its words
// starting at now's bit, mapping the first set bit back to an absolute time.
// Ring index order from now is exactly time order, because each index holds
// exactly one cycle of [now, now+bucketCount).
func (k *Kernel) nextTime() (Cycles, bool) {
	if k.curPos < len(k.cur) {
		return k.now, true
	}
	if k.pending == 0 {
		return 0, false
	}
	i0 := k.now & bucketMask
	w := int(i0 >> 6)
	word := k.occ[w] &^ (1<<(i0&63) - 1)
	for n := 0; n <= len(k.occ); n++ {
		if word != 0 {
			idx := Cycles(w<<6 | bits.TrailingZeros64(word))
			return k.now + (idx-i0)&bucketMask, true
		}
		w = (w + 1) & (len(k.occ) - 1)
		word = k.occ[w]
	}
	return k.spill[0].at, true
}

// advance moves the clock to the next pending cycle and drains its bucket
// into the run buffer, returning the freed slots to the arena's free chain.
// It reports false when nothing is pending.
func (k *Kernel) advance() bool {
	t, ok := k.nextTime()
	if !ok {
		return false
	}
	if t != k.now {
		k.now = t
		k.migrate()
	}
	idx := t & bucketMask
	b := &k.buckets[idx]
	cur := k.cur[:0]
	for s := b.head; s >= 0; {
		n := &k.arena[s]
		cur = append(cur, n.ev)
		next := n.next
		n.next = k.freeHead
		k.freeHead = s
		s = next
	}
	b.head, b.tail = -1, -1
	k.occ[idx>>6] &^= 1 << (idx & 63)
	k.cur = cur
	k.curPos = 0
	return len(cur) > 0
}

// exec runs one event.
func (k *Kernel) exec(e ev) {
	k.executed++
	if e.op != opClosure {
		k.ops[e.op](e.tile, e.x)
		return
	}
	fn := k.closures[e.tile]
	k.closures[e.tile] = nil // release the callback's references
	k.free = append(k.free, e.tile)
	fn()
}

// Step executes the next pending event and advances time to it. It reports
// whether an event was executed.
func (k *Kernel) Step() bool {
	if k.curPos >= len(k.cur) && !k.advance() {
		return false
	}
	e := k.cur[k.curPos]
	k.curPos++
	k.pending--
	k.exec(e)
	return true
}

// Run executes events until the queue is empty or the next event is after
// until; time ends clamped to until if the queue drained earlier events.
// It returns the number of events executed by this call.
func (k *Kernel) Run(until Cycles) uint64 {
	var n uint64
	for {
		if k.curPos < len(k.cur) { // batch events run at the current cycle
			e := k.cur[k.curPos]
			k.curPos++
			k.pending--
			k.exec(e)
			n++
			continue
		}
		t, ok := k.nextTime()
		if !ok || t > until {
			break
		}
		k.Step()
		n++
	}
	if k.now < until {
		k.now = until
		if k.buckets != nil {
			k.migrate()
		}
	}
	return n
}

// RunUntil executes events until stop returns true (checked after each
// event), the queue drains, or maxEvents events have run. It returns the
// number of events executed. A maxEvents of 0 means no limit.
func (k *Kernel) RunUntil(stop func() bool, maxEvents uint64) uint64 {
	var n uint64
	for k.pending > 0 {
		if maxEvents > 0 && n >= maxEvents {
			break
		}
		if !k.Step() {
			break
		}
		n++
		if stop != nil && stop() {
			break
		}
	}
	return n
}

// Drain executes all pending events to completion and returns how many ran.
// Use only in models guaranteed to quiesce.
func (k *Kernel) Drain() uint64 {
	var n uint64
	for k.Step() {
		n++
	}
	return n
}
