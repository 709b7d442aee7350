package cluster

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"blitzcoin"
	"blitzcoin/internal/fault"
	"blitzcoin/internal/sim"
)

// Chaos drives the repo's deterministic fault model (internal/fault) at
// the cluster transport layer: the same Config that perturbs the NoC's
// PM plane in simulation here perturbs a worker's HTTP surface. The
// mapping treats the coordinator as tile 0 and the wrapped worker as a
// tile of the operator's choosing, with a logical clock that advances one
// sim cycle per intercepted request — so a (config, seed) pair reproduces
// a bit-identical chaos schedule for a given request sequence, exactly
// the "same seed, same run" convention the rest of the repo rests on.
//
// Faults translate as:
//
//   - TileKills[tile]     — the worker crashes: every request at or after
//     At (including one already executing) tears its connection down.
//   - SlowTiles[tile]     — fail-slow: service time stretches by Factor.
//   - LinkFails{0,tile}   — heartbeat partition: all traffic between
//     coordinator and worker is dropped while the worker stays healthy.
//   - DropRate            — a request vanishes (connection torn down).
//   - DupRate             — the request packet delivered twice: the
//     handler runs an extra, discarded time (idempotency exercise).
//   - DelayRate/DelayMax  — delivery delayed; one cycle sleeps chaosCycle.
type Chaos struct {
	inj  *fault.Injector
	kern *sim.Kernel
	tile int
	log  *slog.Logger

	mu    sync.Mutex
	clock sim.Cycles
	slow  float64
}

// chaosCoordTile is the tile index the coordinator plays in the
// transport mapping.
const chaosCoordTile = 0

// chaosCycle is the wall-clock length of one ExtraDelay cycle.
const chaosCycle = time.Millisecond

// NewChaos builds a chaos layer for one worker from the public fault
// options (the same shape the sweep API takes), assigning the worker the
// given tile index (must not be 0, the coordinator's).
func NewChaos(opts blitzcoin.FaultOptions, tile int, log *slog.Logger) *Chaos {
	if log == nil {
		log = slog.Default()
	}
	cfg := fault.Config{
		Seed:      opts.Seed,
		Plane:     -1, // the transport has no planes; every request is PM traffic
		DropRate:  opts.DropRate,
		DupRate:   opts.DupRate,
		DelayRate: opts.DelayRate,
		DelayMax:  sim.Cycles(opts.DelayMaxCycles),
	}
	for _, f := range opts.KillTiles {
		cfg.TileKills = append(cfg.TileKills, fault.TileFault{Tile: f.Tile, At: f.AtCycle})
	}
	for _, f := range opts.FailSlow {
		cfg.SlowTiles = append(cfg.SlowTiles, fault.SlowFault{Tile: f.Tile, At: f.AtCycle, Factor: f.Factor})
	}
	for _, f := range opts.FailLinks {
		cfg.LinkFails = append(cfg.LinkFails, fault.LinkFault{A: f.A, B: f.B, At: f.AtCycle})
	}
	c := &Chaos{
		inj:  fault.NewInjector(cfg),
		kern: &sim.Kernel{},
		tile: tile,
		log:  log,
		slow: 1,
	}
	c.inj.OnFailSlow(func(t int, factor float64) {
		if t == c.tile {
			c.slow = factor // mu already held by the ticking caller
		}
	})
	c.inj.Arm(c.kern)
	return c
}

// Stats exposes the injected-fault counters.
func (c *Chaos) Stats() fault.Stats { return c.inj.Stats() }

// verdict advances the logical clock one cycle and rules on the request.
func (c *Chaos) verdict() (v fault.Verdict, dead bool, slow float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	c.kern.Run(c.clock)
	if c.inj.TileDead(c.tile) || c.inj.LinkFailed(chaosCoordTile, c.tile) {
		return fault.Verdict{Drop: true}, c.inj.TileDead(c.tile), c.slow
	}
	// The link check above ruled on the one link a request crosses.
	return c.inj.PacketVerdict(fault.DefaultPlane, chaosCoordTile, c.tile, false), false, c.slow
}

// deadNow re-checks fail-stop after a handler ran: a kill that fired
// while the request executed still tears the connection down, which is
// what "crash mid-shard" means at this layer.
func (c *Chaos) deadNow() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inj.TileDead(c.tile)
}

// sleepOrGone sleeps for d or until the request's client disconnects.
func sleepOrGone(r *http.Request, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-r.Context().Done():
	}
}

// discardWriter swallows the duplicate delivery of a dup-verdict request.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// bufferWriter holds the response until the post-handler fail-stop check
// passes, so a mid-request kill can still abort the connection instead of
// leaking a half-real response.
type bufferWriter struct {
	h      http.Header
	status int
	body   []byte
}

func newBufferWriter() *bufferWriter {
	return &bufferWriter{h: make(http.Header), status: http.StatusOK}
}

func (b *bufferWriter) Header() http.Header { return b.h }
func (b *bufferWriter) Write(p []byte) (int, error) {
	b.body = append(b.body, p...)
	return len(p), nil
}
func (b *bufferWriter) WriteHeader(status int) { b.status = status }

func (b *bufferWriter) flush(w http.ResponseWriter) {
	for k, vs := range b.h {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	w.Write(b.body) //nolint:errcheck // client gone is the only failure
}

// Wrap applies the chaos layer to a handler. Observability endpoints
// (/metrics, /readyz, /debug/*) pass through untouched so an operator can
// watch the experiment from outside the blast radius; everything else —
// shards, sweeps, health probes — rides the faulty transport.
func (c *Chaos) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/metrics", r.URL.Path == "/readyz",
			len(r.URL.Path) >= 7 && r.URL.Path[:7] == "/debug/":
			next.ServeHTTP(w, r)
			return
		}
		v, dead, slow := c.verdict()
		if dead || v.Drop {
			// A dropped packet never answers: tear the connection down so
			// the coordinator sees a transport error, not a clean HTTP one.
			panic(http.ErrAbortHandler)
		}
		if v.ExtraDelay > 0 {
			sleepOrGone(r, time.Duration(v.ExtraDelay)*chaosCycle)
		}
		if v.Dup {
			// The request packet delivered twice: run the handler once into
			// the void. The worker's cache/coalescing must make this free.
			// The body is buffered so both deliveries read the full payload.
			payload, err := io.ReadAll(r.Body)
			if err == nil {
				dup := r.Clone(r.Context())
				dup.Body = io.NopCloser(bytes.NewReader(payload))
				r.Body = io.NopCloser(bytes.NewReader(payload))
				next.ServeHTTP(&discardWriter{h: make(http.Header)}, dup)
			}
		}
		start := time.Now()
		buf := newBufferWriter()
		next.ServeHTTP(buf, r)
		if slow > 1 {
			// Fail-slow: stretch the observed service time by the factor.
			// Abandoned requests (a cancelled speculation loser) stop
			// stalling immediately — the connection is dead anyway.
			sleepOrGone(r, time.Duration(float64(time.Since(start))*(slow-1)))
		}
		if c.deadNow() {
			panic(http.ErrAbortHandler)
		}
		buf.flush(w)
	})
}
