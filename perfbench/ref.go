package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Reference-host units.
//
// Host speed on small shared machines drifts by integer factors within
// minutes, so raw wall-clock times of identical code spread far wider than
// any change worth detecting. Every host-time metric is therefore divided
// by a fixed reference kernel timed right beside the work, at the work's
// parallelism and on one goroutine, while the program is quiescent:
//
//	normalized = raw × refNominalMs / measured reference
//
// which reads as the value on a host where the reference measures exactly
// refNominalMs. The kernel is shaped like the engine's hot path — a
// seeded, heap-ordered event loop over a 20×20 torus doing pairwise
// integer balancing — because references of other shapes (SHA-256 loops,
// pointer chases, sort+map) tracked the engine's speed worse. It uses the
// standard library only and never a package of the module, so no program
// change can move it, and it allocates nothing.
const (
	refSide      = 20
	refTiles     = refSide * refSide
	refEvents    = 100_000
	refNominalMs = 13.0
	refSeed      = 0x9E3779B97F4A7C15
)

// refKernel is one reference event loop's state, preallocated so a run
// allocates nothing. Each tile has exactly one pending event; heap orders
// tile ids by their next event time.
type refKernel struct {
	coins [refTiles]int64
	at    [refTiles]uint64
	heap  [refTiles]int32
	rng   uint64
}

func (k *refKernel) next() uint64 {
	k.rng ^= k.rng << 13
	k.rng ^= k.rng >> 7
	k.rng ^= k.rng << 17
	return k.rng
}

// down restores the heap order below position i.
func (k *refKernel) down(i int) {
	for {
		l := 2*i + 1
		if l >= refTiles {
			return
		}
		m := l
		if r := l + 1; r < refTiles && k.at[k.heap[r]] < k.at[k.heap[l]] {
			m = r
		}
		if k.at[k.heap[i]] <= k.at[k.heap[m]] {
			return
		}
		k.heap[i], k.heap[m] = k.heap[m], k.heap[i]
		i = m
	}
}

// run executes refEvents events from the fixed seed and returns a
// checksum that keeps the work observable.
func (k *refKernel) run() int64 {
	k.rng = refSeed
	for i := range k.coins {
		k.coins[i] = int64(i%37) * 8
		k.at[i] = uint64(i % 16)
		k.heap[i] = int32(i)
	}
	for i := refTiles/2 - 1; i >= 0; i-- {
		k.down(i)
	}
	var sum int64
	for e := 0; e < refEvents; e++ {
		t := int(k.heap[0])
		x := k.next()
		row, col := t/refSide, t%refSide
		switch x & 3 {
		case 0:
			col = (col + 1) % refSide
		case 1:
			col = (col + refSide - 1) % refSide
		case 2:
			row = (row + 1) % refSide
		default:
			row = (row + refSide - 1) % refSide
		}
		nb := row*refSide + col
		d := (k.coins[t] - k.coins[nb]) / 2
		k.coins[t] -= d
		k.coins[nb] += d
		if (x>>8)&63 == 0 {
			a, b := (x>>16)%refTiles, (x>>32)%refTiles
			k.coins[a] += 16
			k.coins[b] -= 16
		}
		k.at[t] += 1 + (x>>40)&31
		k.down(0)
		sum += d
	}
	return sum + k.coins[0]
}

// reference times the kernel twice: on par goroutines at once (the mean
// of their run times) and on one goroutine. The reference value is the
// geometric mean of the two. Every workload mixes parallel sections with
// serial ones (a single caller, the sweep's fold, GC), and host drift on a
// shared machine moves single-thread speed and parallel throughput by
// different amounts; the composite tracked the engine better than either
// alone.
type reference struct {
	kernels []refKernel
	sink    atomic.Int64
	nanos   atomic.Int64
	last    [2]float64 // parallel and single-goroutine times of the last point, ms
}

func newReference(par int) *reference {
	if par < 1 {
		par = 1
	}
	return &reference{kernels: make([]refKernel, par)}
}

func (r *reference) measure() float64 {
	var wg sync.WaitGroup
	r.nanos.Store(0)
	run := func(k *refKernel) {
		start := time.Now()
		r.sink.Add(k.run())
		r.nanos.Add(time.Since(start).Nanoseconds())
	}
	for i := 1; i < len(r.kernels); i++ {
		wg.Add(1)
		go func(k *refKernel) {
			defer wg.Done()
			run(k)
		}(&r.kernels[i])
	}
	run(&r.kernels[0])
	wg.Wait()
	r.last[0] = float64(r.nanos.Load()) / 1e6 / float64(len(r.kernels))
	start := time.Now()
	r.sink.Add(r.kernels[0].run())
	r.last[1] = msSince(start)
	return math.Sqrt(r.last[0] * r.last[1])
}

// guard refuses to time the reference while the program still works:
// background work would inflate the reference and make the program look
// faster. Quiescent means no more goroutines than the idle count and, for
// the server, no request in flight. A short grace lets goroutines that
// are already returning finish.
type guard struct {
	idle  int
	busy  func() bool
	grace time.Duration
}

func (g guard) wait() error {
	deadline := time.Now().Add(g.grace)
	for {
		n := runtime.NumGoroutine()
		busy := g.busy != nil && g.busy()
		if n <= g.idle && !busy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("reference guard: program not quiescent (%d goroutines, idle %d, server busy %v)", n, g.idle, busy)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// idleGoroutines settles and returns the current goroutine count, taken
// as the idle baseline once set-up has finished.
func idleGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// clock runs timed blocks between reference points. refs[i] is the i-th
// reference time in ms; block b is bracketed by refs[b] and refs[b+1]
// (blocks run back to back share the point between them).
type clock struct {
	ref    *reference
	guard  guard
	refs   []float64
	parts  [][2]float64 // each point's parallel and single-goroutine times
	blocks []blockTime
	// stale is set when untimed work ran since the last point, so the
	// next block needs a fresh "before" reference.
	stale bool
}

// blockTime is one timed block: its raw wall time and the factor that
// converts its host times into reference-host units.
type blockTime struct {
	wallMs float64
	factor float64
	ref    int // index of the block's "before" point
}

func newClock(par int, g guard) *clock {
	if g.grace == 0 {
		g.grace = 2 * time.Second
	}
	return &clock{ref: newReference(par), guard: g, stale: true}
}

// point times the reference once, after checking quiescence. A forced
// collection first keeps the previous block's garbage from being marked
// concurrently with the reference.
func (c *clock) point() error {
	if err := c.guard.wait(); err != nil {
		return err
	}
	runtime.GC()
	c.refs = append(c.refs, c.ref.measure())
	c.parts = append(c.parts, c.ref.last)
	return nil
}

// block times fn between two reference points and returns the block's
// index; its factor is refNominalMs over the mean of the points around
// it.
func (c *clock) block(fn func()) (int, error) {
	if c.stale {
		if err := c.point(); err != nil {
			return 0, err
		}
		c.stale = false
	}
	before := len(c.refs) - 1
	start := time.Now()
	fn()
	wall := msSince(start)
	if err := c.point(); err != nil {
		return 0, err
	}
	c.blocks = append(c.blocks, blockTime{wallMs: wall, ref: before})
	c.refactor()
	return len(c.blocks) - 1, nil
}

// refWindow is how many reference points on each side of a block enter
// its factor. One point is a ~30 ms sample; a host slowed by bursts of
// contention shows them as scattered slow points, and the work in a block
// pays for the bursts it overlaps. The mean over a few seconds of points
// estimates that average slowness (a median would discard the bursts).
const refWindow = 3

// refactor recomputes every block's factor from the mean of the
// reference points around it (points taken after the block included, so
// factors settle as the run proceeds).
func (c *clock) refactor() {
	for i := range c.blocks {
		b := &c.blocks[i]
		lo, hi := max(0, b.ref-refWindow+1), min(len(c.refs), b.ref+refWindow+1)
		b.factor = refNominalMs / mean(c.refs[lo:hi])
	}
}

// untimed marks that work ran outside any block, so the next block takes
// a fresh "before" reference.
func (c *clock) untimed() { c.stale = true }

// rate returns ops per second over the given blocks, raw and in
// reference-host units.
func (c *clock) rate(ops float64, blocks []int) (raw, norm float64) {
	var wall, nwall float64
	for _, b := range blocks {
		wall += c.blocks[b].wallMs
		nwall += c.blocks[b].wallMs * c.blocks[b].factor
	}
	return ops / (wall / 1e3), ops / (nwall / 1e3)
}

// seconds returns the given blocks' wall times in s, raw and in
// reference-host units.
func (c *clock) seconds(blocks []int) (raw, norm []float64) {
	for _, b := range blocks {
		raw = append(raw, c.blocks[b].wallMs/1e3)
		norm = append(norm, c.blocks[b].wallMs/1e3*c.blocks[b].factor)
	}
	return raw, norm
}

// refStats summarizes the reference points for the detail line.
func (c *clock) refStats() map[string]float64 {
	xs := append([]float64(nil), c.refs...)
	if len(xs) == 0 {
		return nil
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	walls := make([]float64, len(c.blocks))
	for i, b := range c.blocks {
		walls[i] = b.wallMs
	}
	par, one := make([]float64, len(c.parts)), make([]float64, len(c.parts))
	for i, p := range c.parts {
		par[i], one[i] = p[0], p[1]
	}
	return map[string]float64{"median": median(xs), "min": lo, "max": hi, "points": float64(len(xs)),
		"parallel_median": median(par), "single_median": median(one), "block_wall_ms_median": median(walls)}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
