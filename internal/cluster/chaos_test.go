package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/server"
)

// newChaosWorker starts a real worker behind a Chaos layer playing the
// given tile.
func newChaosWorker(t *testing.T, opts blitzcoin.FaultOptions, tile int) (*httptest.Server, *Chaos) {
	t.Helper()
	backend := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	ch := NewChaos(opts, tile, quietLogger())
	ts := httptest.NewServer(ch.Wrap(backend.Handler()))
	t.Cleanup(ts.Close)
	return ts, ch
}

// chaosSweep runs one clustered sweep against the given workers and
// asserts the rows are byte-identical to single-node execution.
func chaosSweep(t *testing.T, cfg Config, label string) *Coordinator {
	t.Helper()
	req := clusterTestRequests()["fig7"]
	want, err := blitzcoin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, cfg)
	got, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameLines(t, resultLines(t, got), resultLines(t, want), label)
	return c
}

// TestChaosFailSlowWorker injects a fail-slow fault through the chaos
// transport: the afflicted worker's service time stretches 40x from the
// first request on, and the sweep still completes byte-identical because
// speculation re-executes whatever the slow node holds.
func TestChaosFailSlowWorker(t *testing.T) {
	healthy := newWorker(t)
	slow, ch := newChaosWorker(t, blitzcoin.FaultOptions{
		FailSlow: []blitzcoin.SlowFault{{Tile: 2, AtCycle: 0, Factor: 40}},
	}, 2)
	chaosSweep(t, Config{
		Workers: []string{healthy.URL, slow.URL},
		Shards:  fig7Units,
	}, "fail-slow chaos")
	if ch.Stats().Slowed != 1 {
		t.Errorf("chaos stats: slowed = %d, want 1", ch.Stats().Slowed)
	}
}

// TestChaosCrashMidShard fail-stops a worker partway into the sweep: the
// chaos clock kills tile 3 a few requests in, so shards already accepted
// die with the connection and must be re-dispatched to the survivors.
func TestChaosCrashMidShard(t *testing.T) {
	h1, h2 := newWorker(t), newWorker(t)
	crashing, _ := newChaosWorker(t, blitzcoin.FaultOptions{
		KillTiles: []blitzcoin.TileFault{{Tile: 3, AtCycle: 3}},
	}, 3)
	c := chaosSweep(t, Config{
		Workers: []string{h1.URL, h2.URL, crashing.URL},
		Shards:  fig7Units,
	}, "crash mid-shard chaos")
	for _, ws := range c.registry.snapshot() {
		if ws.URL == crashing.URL && ws.Alive {
			t.Error("crashed worker still marked alive after the sweep")
		}
	}
}

// TestChaosHeartbeatPartition fails the coordinator-worker link a few
// requests in: the worker process stays healthy but every probe and
// shard vanishes in the fabric, which must look exactly like a death —
// demotion, re-dispatch, byte-identical rows.
func TestChaosHeartbeatPartition(t *testing.T) {
	healthy := newWorker(t)
	partitioned, _ := newChaosWorker(t, blitzcoin.FaultOptions{
		FailLinks: []blitzcoin.LinkFault{{A: chaosCoordTile, B: 2, AtCycle: 2}},
	}, 2)
	c := chaosSweep(t, Config{
		Workers:   []string{healthy.URL, partitioned.URL},
		Shards:    fig7Units,
		Heartbeat: 50 * time.Millisecond,
	}, "heartbeat partition chaos")
	for _, ws := range c.registry.snapshot() {
		if ws.URL == partitioned.URL && ws.Alive {
			t.Error("partitioned worker still marked alive")
		}
	}
}

// TestChaosPacketFaults turns on random drop, duplication, and delay on
// one worker's transport — the duplicate path in particular delivers
// shard requests twice, exercising worker-side idempotency — and the
// rows still match single-node execution.
func TestChaosPacketFaults(t *testing.T) {
	healthy := newWorker(t)
	noisy, ch := newChaosWorker(t, blitzcoin.FaultOptions{
		Seed:           7,
		DropRate:       0.2,
		DupRate:        0.4,
		DelayRate:      0.4,
		DelayMaxCycles: 8,
	}, 2)
	chaosSweep(t, Config{
		Workers: []string{healthy.URL, noisy.URL},
		Shards:  fig7Units,
	}, "packet chaos")
	st := ch.Stats()
	if st.Drops+st.Dups+st.Delays == 0 {
		t.Error("packet chaos injected nothing across the whole sweep")
	}
}

// TestChaosFailSlowMakespan is the scheduling acceptance gate: with one
// fail-slow worker in the pool, speculative re-execution keeps the sweep
// makespan within 1.5x of the all-healthy run at the same worker count
// (plus scheduler slack), where without speculation the slow node's
// stall would bound the sweep.
func TestChaosFailSlowMakespan(t *testing.T) {
	req := clusterTestRequests()["fig7"]
	run := func(cfg Config) time.Duration {
		t.Helper()
		c := newCoordinator(t, cfg)
		start := time.Now()
		if _, err := c.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Baseline: three healthy workers.
	h1, h2, h3 := newWorker(t), newWorker(t), newWorker(t)
	healthy := run(Config{
		Workers: []string{h1.URL, h2.URL, h3.URL},
		Shards:  fig7Units,
	})

	// Same worker count, but one node stalls every shard for far longer
	// than the whole healthy sweep.
	const stall = 20 * time.Second
	slow := newSlowWorker(t, stall)
	speculated := run(Config{
		Workers: []string{h1.URL, h2.URL, slow.URL},
		Shards:  fig7Units,
	})

	// The absolute slack absorbs speculation-trigger latency (the
	// threshold only arms after specMinSamples completions) and CI
	// scheduling noise; it is tiny next to the injected stall.
	limit := healthy*3/2 + 2*time.Second
	if speculated > limit {
		t.Fatalf("fail-slow makespan %v exceeds %v (1.5x healthy %v + slack)", speculated, limit, healthy)
	}
	if speculated >= stall {
		t.Fatalf("fail-slow makespan %v is bounded by the straggler stall %v", speculated, stall)
	}
}

// BenchmarkClusterFailSlowSweep measures distributed sweep makespan with
// one fail-slow worker and speculation on — the headline scheduling
// number of the elastic cluster.
func BenchmarkClusterFailSlowSweep(b *testing.B) {
	backend := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	h1 := httptest.NewServer(backend.Handler())
	defer h1.Close()
	backend2 := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	h2 := httptest.NewServer(backend2.Handler())
	defer h2.Close()
	slowBackend := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	slowChaos := NewChaos(blitzcoin.FaultOptions{
		FailSlow: []blitzcoin.SlowFault{{Tile: 2, AtCycle: 0, Factor: 25}},
	}, 2, quietLogger())
	slow := httptest.NewServer(slowChaos.Wrap(slowBackend.Handler()))
	defer slow.Close()

	c := newCoordinator(b, Config{
		Workers: []string{h1.URL, h2.URL, slow.URL},
		Shards:  fig7Units,
	})

	req := blitzcoin.Request{Figure: &blitzcoin.FigureOptions{
		Name: "7", Ns: []int{16}, Trials: 6, Seed: 2,
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary the seed so worker caches don't turn later iterations into
		// pure HTTP round-trips.
		req.Figure.Seed = uint64(i + 1)
		if _, err := c.Run(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
