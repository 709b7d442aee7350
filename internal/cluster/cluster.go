// Package cluster distributes blitzcoin Monte-Carlo sweeps across blitzd
// workers. A Coordinator splits a request's flattened trial axis into
// fine-grained [lo, hi) shards, feeds them through a work-stealing
// scheduler (idle workers pull the next queued shard; stragglers are
// speculatively re-executed on a second worker, first completion wins),
// and merges the shard rows in index order with blitzcoin.MergeShards —
// so a clustered sweep returns rows byte-identical to single-node
// execution at any shard count, even after a mid-sweep worker death or a
// duplicate completion from a speculation race.
//
// Worker liveness is tracked two ways: a heartbeat loop probes every
// registered worker's /healthz on a fixed cadence (evicting workers
// unreachable past the eviction window), and a transport failure during
// dispatch demotes the worker immediately so the shard's retry lands
// elsewhere. Workers register statically (the coordinator's -workers
// list) or dynamically (POST /v1/cluster/join, kept fresh by JoinLoop).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blitzcoin"
	"blitzcoin/internal/metrics"
	"blitzcoin/internal/server"
	"blitzcoin/internal/trace"
)

// Config configures a Coordinator. New validates it; every other
// scheduling setting is one of the fixed constants below.
type Config struct {
	// Workers is the static worker list (base URLs, e.g.
	// "http://10.0.0.2:8425"); more workers may join at runtime via
	// POST /v1/cluster/join.
	Workers []string
	// Shards is the shard count planned per request, clamped to the
	// request's unit count: 0 plans shardsPerWorker shards per live
	// worker, and a count at or above the unit count gives every trial
	// unit its own shard, the finest work-stealing grain.
	Shards int
	// Heartbeat is the liveness-probe cadence; a worker unreachable for
	// evictHeartbeats of them is evicted. Must be positive.
	Heartbeat time.Duration
	// ShardTimeout bounds one shard dispatch, so a hung worker turns into
	// a retry instead of a wedged request. Must be positive.
	ShardTimeout time.Duration
	// Logger receives worker state transitions and dispatch failures.
	// Default: slog.Default().
	Logger *slog.Logger
	// Client performs every worker HTTP call. Default: a fresh
	// http.Client (per-call timeouts come from contexts).
	Client *http.Client
	// Bus receives the coordinator-side live events of every distributed
	// sweep: the sweep lifecycle plus shard dispatch/completion, keyed by
	// the request's canonical hash — the bridge that lets a coordinator's
	// /v1/stream follow a cluster sweep. Default: trace.Default().
	Bus *trace.Bus
}

// The fixed scheduling settings. None of them can change a row; they only
// shape makespan and failure handling.
const (
	// shardsPerWorker is the planning factor when Config.Shards is 0:
	// slightly over-splitting keeps every worker busy when shards finish
	// unevenly and shrinks the re-dispatch cost of a worker death.
	shardsPerWorker = 2
	// maxInflight bounds concurrent shards per worker (backpressure).
	maxInflight = 2
	// maxAttempts bounds dispatch attempts per shard, across all workers,
	// before the request fails.
	maxAttempts = 4
	// retryBase is the base of the full-jitter per-shard retry backoff.
	retryBase = 100 * time.Millisecond
	// evictHeartbeats is how many heartbeats a worker may stay unreachable
	// before it is evicted (joined workers are dropped; static workers stay
	// listed as dead and revive on a successful probe).
	evictHeartbeats = 5
	// A running shard is a straggler, and gets a speculative second copy,
	// once it has run specFactor times the specPercentile (nearest rank)
	// of the sweep's completed-shard latencies; the threshold arms after
	// specMinSamples completions. The first byte-identical result wins,
	// so speculation never changes rows, only makespan.
	specPercentile = 0.95
	specFactor     = 1.5
	specMinSamples = 3
)

// validate reports the first setting New cannot run with.
func (cfg Config) validate() error {
	if cfg.Shards < 0 {
		return fmt.Errorf("cluster: negative shard count %d", cfg.Shards)
	}
	if cfg.Heartbeat <= 0 {
		return fmt.Errorf("cluster: heartbeat %v is not positive", cfg.Heartbeat)
	}
	if cfg.ShardTimeout <= 0 {
		return fmt.Errorf("cluster: shard timeout %v is not positive", cfg.ShardTimeout)
	}
	for _, w := range cfg.Workers {
		if w == "" {
			return fmt.Errorf("cluster: empty worker URL")
		}
	}
	return nil
}

// shardLatencyBuckets are the upper bounds (seconds) of the
// completed-shard latency histogram: millisecond test shards through
// shards near the default ten-minute dispatch timeout.
var shardLatencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 300, 600}

// Coordinator dispatches distributed sweeps. Its Run method has the
// server.RunFunc shape, so a coordinator blitzd is an ordinary blitzd
// whose compute function fans out instead of computing locally.
type Coordinator struct {
	cfg      Config
	log      *slog.Logger
	client   *http.Client
	registry *registry
	bus      *trace.Bus

	dispatched   atomic.Uint64
	retried      atomic.Uint64
	failed       atomic.Uint64
	speculated   atomic.Uint64
	specWins     atomic.Uint64
	dupDiscarded atomic.Uint64
	merged       atomic.Uint64

	// queueDepth and runningShards are scheduler gauges across every
	// in-flight sweep, surfaced by /readyz for autoscaling decisions.
	queueDepth    atomic.Int64
	runningShards atomic.Int64

	// shardLatency holds completed-shard service times (seconds) across
	// sweeps, for /metrics and the /v1/cluster/status p50/p99.
	shardLatency *metrics.Histogram

	// baseCtx is the coordinator's lifetime: health probes derive their
	// per-round timeouts from it, so Close interrupts an in-flight probe
	// fan-out instead of waiting out its timeout.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

// New builds a Coordinator and starts its heartbeat loop.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Bus == nil {
		cfg.Bus = trace.Default()
	}
	// The coordinator's lifecycle root: New has no caller context (the
	// coordinator is constructed once at process startup and owns its own
	// background loops), so this is the one place the package mints one.
	ctx, cancel := context.WithCancel(context.Background()) //blitzlint:allow C002 coordinator lifetime root: constructed at process startup, cancelled by Close
	c := &Coordinator{
		cfg:          cfg,
		log:          cfg.Logger,
		client:       cfg.Client,
		registry:     newRegistry(cfg.Workers),
		bus:          cfg.Bus,
		shardLatency: metrics.NewHistogram(shardLatencyBuckets...),
		baseCtx:      ctx,
		baseCancel:   cancel,
		stop:         make(chan struct{}),
	}
	c.done.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Close stops the heartbeat loop and cancels any in-flight health probes.
// In-flight Runs are unaffected.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.baseCancel()
	})
	c.done.Wait()
}

// Readiness reports the coordinator's scheduling state for /readyz: the
// cluster is ready when at least one live worker can take shards.
func (c *Coordinator) Readiness() server.ClusterReadiness {
	snap := c.registry.snapshot()
	cr := server.ClusterReadiness{
		QueueDepth:     c.queueDepth.Load(),
		RunningShards:  c.runningShards.Load(),
		WorkerInflight: make(map[string]int, len(snap)),
	}
	for _, ws := range snap {
		if ws.Alive {
			cr.AliveWorkers++
		}
		cr.WorkerInflight[ws.URL] = ws.Inflight
	}
	cr.Ready = cr.AliveWorkers > 0
	return cr
}

// heartbeatLoop probes every registered worker on the heartbeat cadence
// and evicts workers unreachable past the eviction window.
func (c *Coordinator) heartbeatLoop() {
	defer c.done.Done()
	ticker := time.NewTicker(c.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.probeAll(c.cfg.Heartbeat)
		for _, url := range c.registry.evictStale(evictHeartbeats * c.cfg.Heartbeat) {
			c.log.Warn("cluster worker evicted", "worker", url)
		}
	}
}

// probeAll probes every worker's /healthz concurrently, bounded by the
// heartbeat interval.
func (c *Coordinator) probeAll(timeout time.Duration) {
	ctx, cancel := context.WithTimeout(c.baseCtx, timeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, url := range c.registry.urls() {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			if c.probe(ctx, url) {
				c.registry.markAlive(url, true)
			} else {
				c.registry.markDead(url)
			}
		}(url)
	}
	wg.Wait()
}

// probe reports whether a worker answers /healthz with a matching engine
// version. A mismatched engine is treated as dead: merging rows computed
// by a different engine would silently break determinism.
func (c *Coordinator) probe(ctx context.Context, url string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var body struct {
		Status        string `json:"status"`
		EngineVersion string `json:"engine_version"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		return false
	}
	if body.EngineVersion != blitzcoin.EngineVersion {
		c.log.Warn("cluster worker engine mismatch",
			"worker", url, "worker_engine", body.EngineVersion, "coordinator_engine", blitzcoin.EngineVersion)
		return false
	}
	return true
}

// shardRange is one planned dispatch unit.
type shardRange struct{ lo, hi int }

// plan splits [0, units) into contiguous ranges whose sizes differ by at
// most one: Config.Shards of them, or shardsPerWorker per live worker when
// Shards is 0, clamped to the unit count and floored at one.
func (c *Coordinator) plan(units int) []shardRange {
	k := c.cfg.Shards
	if k == 0 {
		k = shardsPerWorker * max(c.registry.aliveCount(), 1)
	}
	k = max(min(k, units), 1)
	base, rem := units/k, units%k
	out := make([]shardRange, 0, k)
	at := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, shardRange{at, at + size})
		at += size
	}
	return out
}

// Run executes a request across the cluster: plan fine-grained shards,
// schedule them with work-stealing and speculative straggler
// re-execution, merge in index order. It satisfies server.RunFunc, so it
// plugs directly into a blitzd Server.
func (c *Coordinator) Run(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
	norm := req.Normalized()
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	hash, err := norm.CanonicalHash()
	if err != nil {
		return nil, err
	}
	units, err := norm.ShardUnits()
	if err != nil {
		return nil, err
	}
	// The coordinator owns the sweep's lifecycle events; workers publish
	// only trial progress on their own buses. Shard dispatch/completion
	// events flow from the scheduler through the same stream.
	st := trace.NewStream(c.bus, hash)
	st.SweepStart(units)
	sched := newSched(ctx, c, norm, hash, c.plan(units))
	sched.st = st
	shards, err := sched.run()
	if err != nil {
		st.SweepFailed()
		return nil, err
	}
	res, err := blitzcoin.MergeShards(norm, shards)
	if err != nil {
		st.SweepFailed()
		return nil, err
	}
	c.merged.Add(1)
	st.SweepDone(units)
	return res, nil
}

// permanentError marks a dispatch failure retrying cannot fix (the worker
// rejected the request itself, e.g. 400 or an options-hash 409).
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }

// retryAfterError marks a dispatch failure the worker asked us to retry
// later — a 429 (rate/quota throttling) or 503 (draining, admission queue
// full) carrying a Retry-After hint. The scheduler holds the shard back
// at least that long instead of hammering the throttling worker.
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e retryAfterError) Error() string { return e.err.Error() }

// parseRetryAfter reads a Retry-After header's delta-seconds form; the
// HTTP-date form (rare, and never emitted by blitzd) yields zero.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// postShard performs one POST /v1/shard call under the shard timeout. A
// transport failure (connection refused, timeout, torn body) demotes the
// worker so the retry immediately avoids it — unless the caller's context
// was cancelled, which happens to the losing copy of every speculation
// race and says nothing about the worker's health. The heartbeat revives
// a demoted worker when it answers again.
func (c *Coordinator) postShard(ctx context.Context, url string, norm blitzcoin.Request, hash string, sr shardRange) (*blitzcoin.ShardResult, error) {
	body, err := json.Marshal(blitzcoin.ShardRequest{Request: norm, Lo: sr.lo, Hi: sr.hi, OptionsHash: hash})
	if err != nil {
		return nil, permanentError{fmt.Errorf("encoding shard request: %w", err)}
	}
	callCtx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(callCtx, http.MethodPost, url+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			c.registry.markDead(url)
		}
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() == nil {
			c.registry.markDead(url)
		}
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("worker returned %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		switch {
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			// Throttled or draining — transient by definition, and the
			// worker says when to come back. Retryable with its hint.
			return nil, retryAfterError{err, parseRetryAfter(resp.Header.Get("Retry-After"))}
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			// The worker understood us and said no (bad request, options
			// hash conflict): every worker runs the same code, so retrying
			// elsewhere cannot succeed.
			return nil, permanentError{err}
		}
		return nil, err
	}
	var envelope server.ShardResponse
	if err := json.Unmarshal(raw, &envelope); err != nil {
		if ctx.Err() == nil {
			c.registry.markDead(url)
		}
		return nil, fmt.Errorf("decoding shard envelope: %w", err)
	}
	var shard blitzcoin.ShardResult
	if err := json.Unmarshal(envelope.Shard, &shard); err != nil {
		return nil, permanentError{fmt.Errorf("decoding shard result: %w", err)}
	}
	return &shard, nil
}

// JoinLoop registers selfURL with a coordinator and keeps the
// registration fresh on the given cadence until ctx ends — the worker
// half of dynamic membership. Failures are logged and retried on the next
// tick; the loop never gives up while the context lives.
func JoinLoop(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration, log *slog.Logger) {
	if client == nil {
		client = &http.Client{}
	}
	if log == nil {
		log = slog.Default()
	}
	join := func() {
		body, _ := json.Marshal(joinBody{URL: selfURL})
		callCtx, cancel := context.WithTimeout(ctx, interval)
		defer cancel()
		req, err := http.NewRequestWithContext(callCtx, http.MethodPost, coordinatorURL+"/v1/cluster/join", bytes.NewReader(body))
		if err != nil {
			log.Warn("cluster join failed", "coordinator", coordinatorURL, "error", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			log.Warn("cluster join failed", "coordinator", coordinatorURL, "error", err)
			return
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			log.Warn("cluster join response drain failed", "coordinator", coordinatorURL, "error", err)
		}
		if err := resp.Body.Close(); err != nil {
			log.Warn("cluster join response close failed", "coordinator", coordinatorURL, "error", err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Warn("cluster join rejected", "coordinator", coordinatorURL, "status", resp.StatusCode)
		}
	}
	join()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			join()
		}
	}
}
