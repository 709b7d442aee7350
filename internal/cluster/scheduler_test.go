package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/server"
)

// newSlowWorker starts a worker whose /v1/shard calls are held for delay
// (context-aware) before the real computation runs — a fail-slow node
// that still answers health probes promptly.
func newSlowWorker(t *testing.T, delay time.Duration) *httptest.Server {
	t.Helper()
	backend := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	h := backend.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/shard") {
			// Drain the body before stalling: the net/http server only
			// watches for client aborts once the body has been consumed,
			// and a cancelled speculation loser must unblock immediately.
			payload, err := io.ReadAll(r.Body)
			if err != nil {
				return
			}
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(payload))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterSpeculationBeatsStraggler is the tentpole's core scenario: a
// fail-slow worker holds a shard far past the completed-shard latency
// threshold, the scheduler launches a speculative copy on a healthy
// worker, the copy wins, and the rows stay byte-identical to single-node
// execution.
func TestClusterSpeculationBeatsStraggler(t *testing.T) {
	const stall = 30 * time.Second // would dominate the sweep without speculation
	fast := newWorker(t)
	slow := newSlowWorker(t, stall)

	req := clusterTestRequests()["fig7"]
	want, err := blitzcoin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	c := newCoordinator(t, blitzcoin.ClusterOptions{
		Workers:   []string{fast.URL, slow.URL},
		StealUnit: 1, // fine-grained: every trial unit its own shard
	})
	start := time.Now()
	got, err := c.Run(context.Background(), req)
	makespan := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, resultLines(t, got), resultLines(t, want), "speculated sweep")
	if c.speculated.Load() == 0 || c.specWins.Load() == 0 {
		t.Errorf("speculated=%d wins=%d; want both > 0", c.speculated.Load(), c.specWins.Load())
	}
	if makespan >= stall {
		t.Errorf("makespan %v bounded by the straggler's %v stall", makespan, stall)
	}
	// The healthy worker's speculative wins are credited per worker.
	var fastWins uint64
	for _, ws := range c.registry.snapshot() {
		if ws.URL == fast.URL {
			fastWins = ws.SpeculativeWins
		}
	}
	if fastWins == 0 {
		t.Error("healthy worker shows no speculative wins in the registry snapshot")
	}
}

// TestClusterNoSpeculationKnob checks the off switch: with speculation
// disabled nothing is ever re-dispatched early, however slow a worker is
// relative to its peers.
func TestClusterNoSpeculationKnob(t *testing.T) {
	fast := newWorker(t)
	slow := newSlowWorker(t, 300*time.Millisecond)

	req := clusterTestRequests()["faults"]
	want, err := blitzcoin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	c := newCoordinator(t, blitzcoin.ClusterOptions{
		Workers:       []string{fast.URL, slow.URL},
		StealUnit:     1,
		NoSpeculation: true,
	})
	got, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, resultLines(t, got), resultLines(t, want), "no-speculation sweep")
	if c.speculated.Load() != 0 {
		t.Errorf("speculated=%d with NoSpeculation set", c.speculated.Load())
	}
}

// TestSchedulerDuplicateCompletionIdempotent drives the first-result-wins
// rule directly: both copies of a speculated shard complete successfully,
// and the second byte-identical result is discarded without disturbing
// the merge inputs or the win/loss accounting.
func TestSchedulerDuplicateCompletionIdempotent(t *testing.T) {
	c := newCoordinator(t, blitzcoin.ClusterOptions{Workers: []string{"http://w1", "http://w2"}})
	req := clusterTestRequests()["fig7"].Normalized()
	hash, err := req.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	s := newSched(context.Background(), c, req, hash, []shardRange{{0, 1}, {1, 2}})
	defer s.cancel()

	st := s.states[0]
	st.speculated = true
	st.copies[1] = &copyInfo{url: "http://w1", cancel: func() {}}
	st.copies[2] = &copyInfo{url: "http://w2", speculative: true, cancel: func() {}}

	first := &blitzcoin.ShardResult{Lo: 0, Hi: 1}
	dup := &blitzcoin.ShardResult{Lo: 0, Hi: 1}
	// The speculative copy wins...
	s.complete(st, 2, "http://w2", first, nil, 10*time.Millisecond, true)
	// ...and the original's completion arrives late.
	s.complete(st, 1, "http://w1", dup, nil, 15*time.Millisecond, false)

	if s.results[0] != first {
		t.Error("winner's result was displaced by the duplicate")
	}
	if s.remaining != 1 {
		t.Errorf("remaining = %d, want 1 (only shard 0 completed)", s.remaining)
	}
	if c.dupDiscarded.Load() != 1 {
		t.Errorf("duplicates discarded = %d, want 1", c.dupDiscarded.Load())
	}
	if c.specWins.Load() != 1 {
		t.Errorf("speculative wins = %d, want 1", c.specWins.Load())
	}
	var w1Losses, w2Wins uint64
	for _, ws := range c.registry.snapshot() {
		switch ws.URL {
		case "http://w1":
			w1Losses = ws.SpeculativeLosses
		case "http://w2":
			w2Wins = ws.SpeculativeWins
		}
	}
	if w1Losses != 1 || w2Wins != 1 {
		t.Errorf("per-worker accounting: w1 losses=%d (want 1), w2 wins=%d (want 1)", w1Losses, w2Wins)
	}
}

// TestPlanStealUnit checks the fine-grained planning knob: StealUnit
// bounds the units per shard and overrides the static shard counts.
func TestPlanStealUnit(t *testing.T) {
	c := newCoordinator(t, blitzcoin.ClusterOptions{
		Workers:   []string{"http://w1"},
		Shards:    2, // overridden by StealUnit
		StealUnit: 1,
	})
	ranges := c.plan(6)
	if len(ranges) != 6 {
		t.Fatalf("StealUnit=1 over 6 units planned %d shards, want 6", len(ranges))
	}
	for i, r := range ranges {
		if r.hi-r.lo != 1 || r.lo != i {
			t.Fatalf("shard %d = [%d,%d), want [%d,%d)", i, r.lo, r.hi, i, i+1)
		}
	}
	c2 := newCoordinator(t, blitzcoin.ClusterOptions{Workers: []string{"http://w1"}, StealUnit: 4})
	if got := len(c2.plan(6)); got != 2 {
		t.Fatalf("StealUnit=4 over 6 units planned %d shards, want ceil(6/4)=2", got)
	}
}

// TestFullJitterBackoff checks the satellite fix: every delay is uniform
// in [0, base<<(attempt-1)) with the window capped, so no two retries are
// pinned to the same tick.
func TestFullJitterBackoff(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 14; attempt++ {
		window := base << 10
		if attempt <= 11 {
			window = base << (attempt - 1)
		}
		for i := 0; i < 100; i++ {
			d := fullJitterBackoff(base, attempt)
			if d < 0 || d >= window {
				t.Fatalf("attempt %d: delay %v outside [0, %v)", attempt, d, window)
			}
		}
	}
	if d := fullJitterBackoff(0, 3); d != 0 {
		t.Fatalf("zero base should yield zero delay, got %v", d)
	}
}

// TestCoordinatorReadiness checks the readiness surface /readyz consumes.
func TestCoordinatorReadiness(t *testing.T) {
	w := newWorker(t)
	c := newCoordinator(t, blitzcoin.ClusterOptions{Workers: []string{w.URL}})
	cr := c.Readiness()
	if !cr.Ready || cr.AliveWorkers != 1 {
		t.Fatalf("readiness with a live worker = %+v", cr)
	}
	c.registry.markDead(w.URL)
	if cr := c.Readiness(); cr.Ready || cr.AliveWorkers != 0 {
		t.Fatalf("readiness with all workers dead = %+v", cr)
	}
}
