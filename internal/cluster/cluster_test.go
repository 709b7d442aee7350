package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/server"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newWorker starts a real blitzd worker (full server stack) for the
// coordinator to dispatch to.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newCoordinator builds a quiet coordinator from cfg, with blitzd's flag
// defaults (a 1 s heartbeat, a 10 min shard timeout) where cfg leaves
// them zero.
func newCoordinator(t testing.TB, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 10 * time.Minute
	}
	cfg.Logger = quietLogger()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// fig7Units is the trial-unit count of clusterTestRequests()["fig7"]: two
// pairing points of six trials each. Planning that many shards gives every
// unit its own shard, the finest work-stealing grain.
const fig7Units = 12

// clusterTestRequests are the determinism-gate workloads: Fig. 7 and the
// fault study, sized for test runtime.
func clusterTestRequests() map[string]blitzcoin.Request {
	return map[string]blitzcoin.Request{
		"fig7": {Figure: &blitzcoin.FigureOptions{
			Name: "7", Ns: []int{16}, Trials: 6, Seed: 2,
		}},
		"faults": {Figure: &blitzcoin.FigureOptions{
			Name: "faults", Dims: []int{4}, DropRates: []float64{0, 0.02}, Trials: 3, Seed: 3,
		}},
	}
}

func resultLines(t *testing.T, res *blitzcoin.Result) []string {
	t.Helper()
	if res == nil || res.Figure == nil {
		t.Fatalf("result carries no figure: %+v", res)
	}
	return res.Figure.Lines
}

func sameLines(t *testing.T, got, want []string, label string) {
	t.Helper()
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("%s: rows differ from single-node\n got: %s\nwant: %s", label, gotJSON, wantJSON)
	}
}

// TestClusterByteIdenticalAtShardCounts is the cluster half of the
// determinism gate: a sweep dispatched across real workers at shard
// counts 1, 2, and 4 returns rows byte-identical to local execution.
func TestClusterByteIdenticalAtShardCounts(t *testing.T) {
	w1, w2 := newWorker(t), newWorker(t)
	for name, req := range clusterTestRequests() {
		req := req
		t.Run(name, func(t *testing.T) {
			want, err := blitzcoin.Execute(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 4} {
				c := newCoordinator(t, Config{
					Workers: []string{w1.URL, w2.URL},
					Shards:  k,
				})
				got, err := c.Run(context.Background(), req)
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if got.Figure.Meta.Shards != k {
					t.Fatalf("k=%d: meta shards %d", k, got.Figure.Meta.Shards)
				}
				sameLines(t, resultLines(t, got), resultLines(t, want), name)
			}
		})
	}
}

// TestClusterWorkerDeathMidSweep kills one of three workers mid-sweep
// (its connection drops while serving its first shard) and checks the
// coordinator re-dispatches the lost shards to the survivors with rows
// still byte-identical to single-node execution.
func TestClusterWorkerDeathMidSweep(t *testing.T) {
	good1, good2 := newWorker(t), newWorker(t)

	// The dying worker behaves like a healthy peer until its first shard
	// arrives, then drops that connection and every later one (healthz
	// included) — what the coordinator sees when a worker process is
	// killed while computing.
	backend := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	h := backend.Handler()
	var killed atomic.Bool
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() || strings.HasPrefix(r.URL.Path, "/v1/shard") {
			killed.Store(true)
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	req := clusterTestRequests()["fig7"]
	want, err := blitzcoin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	c := newCoordinator(t, Config{
		Workers: []string{good1.URL, good2.URL, dying.URL},
		Shards:  6,
	})
	got, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, resultLines(t, got), resultLines(t, want), "after worker death")
	if c.retried.Load() == 0 {
		t.Error("expected at least one shard retry after the worker died")
	}
	for _, ws := range c.registry.snapshot() {
		if ws.URL == dying.URL && ws.Alive {
			t.Error("dying worker should be marked dead after transport failures")
		}
	}
}

// TestClusterSlowWorkerRedispatch checks the shard timeout: a hung worker
// turns into a retry on a live one instead of wedging the sweep.
func TestClusterSlowWorkerRedispatch(t *testing.T) {
	good := newWorker(t)

	backend := server.New(server.Config{Workers: 4, Logger: quietLogger()})
	h := backend.Handler()
	stop := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/shard") {
			// Hang until the coordinator gives up (or the test ends).
			select {
			case <-r.Context().Done():
			case <-stop:
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(hung.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: unblock handlers before Close waits on them

	req := clusterTestRequests()["faults"]
	want, err := blitzcoin.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	c := newCoordinator(t, Config{
		Workers:      []string{good.URL, hung.URL},
		Shards:       2,
		ShardTimeout: 200 * time.Millisecond,
	})
	got, err := c.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	sameLines(t, resultLines(t, got), resultLines(t, want), "after hung worker")
	if c.retried.Load() == 0 {
		t.Error("expected the hung worker's shard to be re-dispatched")
	}
}

// TestClusterEviction checks the liveness machinery: unreachable joined
// workers are removed after the eviction window, unreachable static
// workers stay listed as dead, and a dead static worker revives on a
// successful probe.
func TestClusterEviction(t *testing.T) {
	// 127.0.0.1:1 is reserved and refuses connections immediately.
	deadStatic := "http://127.0.0.1:1"
	deadJoined := "http://127.0.0.1:2"
	c := newCoordinator(t, Config{
		Workers:   []string{deadStatic},
		Heartbeat: 20 * time.Millisecond, // eviction after 5 of them: 100 ms
	})

	// Join a worker that immediately stops answering.
	jr := httptest.NewRequest(http.MethodPost, "/v1/cluster/join",
		strings.NewReader(`{"url":"`+deadJoined+`"}`))
	rw := httptest.NewRecorder()
	c.HandleJoin(rw, jr)
	if rw.Code != http.StatusOK {
		t.Fatalf("join: %d %s", rw.Code, rw.Body)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := c.registry.snapshot()
		staticDead, joinedGone := false, true
		for _, ws := range snap {
			if ws.URL == deadStatic && !ws.Alive {
				staticDead = true
			}
			if ws.URL == deadJoined {
				joinedGone = false
			}
		}
		if staticDead && joinedGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("eviction incomplete: %+v", snap)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Revival: a static worker that comes back is probed alive again.
	live := newWorker(t)
	c2 := newCoordinator(t, Config{
		Workers:   []string{live.URL},
		Heartbeat: 20 * time.Millisecond,
	})
	c2.registry.markDead(live.URL)
	deadline = time.Now().Add(5 * time.Second)
	for c2.registry.aliveCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("static worker never revived after a successful probe")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterNoLiveWorkers checks the fail-fast path: a sweep with every
// worker dead errors instead of blocking.
func TestClusterNoLiveWorkers(t *testing.T) {
	c := newCoordinator(t, Config{Workers: []string{"http://127.0.0.1:1"}})
	req := blitzcoin.Request{Trials: 2, Exchange: &blitzcoin.ExchangeOptions{
		Dim: 4, Torus: true, RandomPairing: true, Seed: 1,
	}}
	if _, err := c.Run(context.Background(), req); err == nil {
		t.Fatal("want error with no live workers")
	}
}

// TestClusterEngineMismatch checks version pinning: a worker reporting a
// different engine version is never dispatched to.
func TestClusterEngineMismatch(t *testing.T) {
	// A proxy to a real worker that lies about its engine version.
	real := newWorker(t)
	mismatched := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"status":"ok","engine_version":"0-other"}`) //nolint:errcheck
			return
		}
		httputil.NewSingleHostReverseProxy(mustParse(t, real.URL)).ServeHTTP(w, r)
	}))
	t.Cleanup(mismatched.Close)

	c := newCoordinator(t, Config{
		Workers:   []string{mismatched.URL},
		Heartbeat: 20 * time.Millisecond,
	})
	deadline := time.Now().Add(5 * time.Second)
	for c.registry.aliveCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("mismatched-engine worker should be demoted by the heartbeat")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJoinLoop checks worker self-registration end to end through a
// coordinator-mode server.
func TestJoinLoop(t *testing.T) {
	c := newCoordinator(t, Config{Heartbeat: 50 * time.Millisecond})
	srv := server.New(server.Config{Logger: quietLogger(), Run: c.Run, Cluster: c})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var joined atomic.Bool
	go func() {
		JoinLoop(ctx, nil, ts.URL, "http://worker.example:8425", 20*time.Millisecond, quietLogger())
		joined.Store(true)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, ws := range c.registry.snapshot() {
			if ws.URL == "http://worker.example:8425" {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never appeared in the registry")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	deadline = time.Now().Add(5 * time.Second)
	for !joined.Load() {
		if time.Now().After(deadline) {
			t.Fatal("JoinLoop did not stop on context cancellation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustParse(t *testing.T, raw string) *url.URL {
	t.Helper()
	u, err := url.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}
