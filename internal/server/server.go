package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/metrics"
	"blitzcoin/internal/store"
	"blitzcoin/internal/tenant"
	"blitzcoin/internal/trace"
)

// RunFunc computes a validated request; it is blitzcoin.Execute in
// production, a cluster coordinator's Run in -coordinator mode, and
// injectable in tests.
type RunFunc func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error)

// ClusterBackend is the coordinator face a Server mounts in -coordinator
// mode: the worker-registry endpoints plus the cluster section of
// /metrics. It is an interface so the server package never imports the
// cluster package (the coordinator already imports the server's wire
// types for shard dispatch).
type ClusterBackend interface {
	// HandleJoin serves POST /v1/cluster/join (worker self-registration,
	// idempotent, doubles as a keepalive).
	HandleJoin(w http.ResponseWriter, r *http.Request)
	// HandleStatus serves GET /v1/cluster/status (worker table and shard
	// counters for operators and blitzctl -cluster).
	HandleStatus(w http.ResponseWriter, r *http.Request)
	// Readiness reports scheduling state for the /readyz endpoint.
	Readiness() ClusterReadiness
	// WriteMetrics appends the cluster's families to a /metrics scrape.
	WriteMetrics(w *metrics.Writer)
}

// ClusterReadiness is the coordinator section of the /readyz body: queue
// depth and per-worker inflight so an external autoscaler can add workers
// under backlog.
type ClusterReadiness struct {
	Ready          bool           `json:"ready"`
	AliveWorkers   int            `json:"alive_workers"`
	QueueDepth     int64          `json:"queue_depth"`
	RunningShards  int64          `json:"running_shards"`
	WorkerInflight map[string]int `json:"worker_inflight,omitempty"`
}

// readyBody is the body of GET /readyz. Distinct from /healthz: liveness
// says the process is up, readiness says it should receive new work.
type readyBody struct {
	Status        string            `json:"status"`
	EngineVersion string            `json:"engine_version"`
	Draining      bool              `json:"draining"`
	QueuedSweeps  int64             `json:"queued_sweeps"`
	BusySweeps    int64             `json:"busy_sweeps"`
	Cluster       *ClusterReadiness `json:"cluster,omitempty"`
}

// Config configures a Server. The zero value is completed with the
// defaults noted per field.
type Config struct {
	// Workers bounds concurrent sweep computations (each computation
	// additionally fans its trials out over the sweep package's own
	// worker pool). Default 2.
	Workers int
	// CacheEntries and CacheBytes bound the result cache. Defaults 256
	// entries, 64 MiB. Non-positive values disable the respective bound.
	CacheEntries int
	CacheBytes   int64
	// Logger receives one structured line per finished request. Default:
	// slog.Default().
	Logger *slog.Logger
	// Run computes requests. Default: blitzcoin.Execute.
	Run RunFunc
	// Cluster, when non-nil, mounts the coordinator endpoints
	// (/v1/cluster/join, /v1/cluster/status) and folds the cluster metric
	// section into /metrics.
	Cluster ClusterBackend
	// Bus is the trace bus GET /v1/stream subscribes to. Default: the
	// process-wide trace.Default() bus, which Execute publishes to.
	Bus *trace.Bus
	// Ledger, when non-nil, records every computed result (by options hash,
	// engine version, and canonical result SHA) and mounts the
	// /v1/ledger/proof and /v1/ledger/root endpoints. Nil disables both:
	// results are served unstamped and the endpoints 404.
	Ledger *ledger.Ledger
	// StreamBuffer is the per-subscriber event-ring capacity of /v1/stream;
	// a subscriber that falls further behind loses its oldest events.
	// Default 256.
	StreamBuffer int
	// Tenants authenticates and limits API clients. Default: an open
	// registry (every request maps to one unlimited anonymous tenant),
	// which is byte-for-byte the pre-tenancy behavior.
	Tenants *tenant.Registry
	// Store, when non-nil, is the disk tier beneath the in-memory result
	// cache: computed results (sweeps and shards) are persisted there and
	// a memory miss consults it before computing, so the cache survives
	// restarts and can be shared across cluster workers. Nil disables the
	// tier.
	Store *store.Store
	// QueueDepth bounds each admission class's wait queue; an over-full
	// class is refused with 503 + Retry-After instead of queueing without
	// bound. Default 64.
	QueueDepth int
}

// Server is the blitzd request engine: coalescing, caching, bounded
// execution, and the HTTP surface over them. Create with New, serve
// Handler, stop with Shutdown.
type Server struct {
	log     *slog.Logger
	run     RunFunc
	cache   *cache
	flights *flightGroup
	pool    *pool
	metrics *serverMetrics
	cluster ClusterBackend
	bus     *trace.Bus
	ledger  *ledger.Ledger
	tenants *tenant.Registry
	store   *store.Store

	streamBuf int

	// baseCtx outlives any single request: computations run under it so
	// a disconnecting client cannot cancel work other clients (or the
	// cache) will still want. Shutdown cancels it after the drain.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	draining   atomic.Bool
	// drainCh closes when the drain begins; open SSE streams use it to
	// decide between finishing their in-flight sweep and ending early.
	drainCh   chan struct{}
	drainOnce sync.Once
}

// Response is the envelope of POST /v1/sweep. Result carries the marshaled
// blitzcoin.Result verbatim from the cache, so two responses for the same
// canonical request are byte-identical in everything but the serving
// annotations (cached, coalesced, elapsed).
type Response struct {
	Version       string `json:"version"`
	Kind          string `json:"kind"`
	RequestHash   string `json:"request_hash"`
	EngineVersion string `json:"engine_version"`
	Cached        bool   `json:"cached"`
	// Tier names the cache tier a hit was served from: "memory" or
	// "disk". Empty on computed (uncached) responses.
	Tier          string          `json:"tier,omitempty"`
	Coalesced     bool            `json:"coalesced"`
	ElapsedMicros int64           `json:"elapsed_micros"`
	Result        json.RawMessage `json:"result"`
}

// errorBody is the JSON error shape of non-200 responses.
type errorBody struct {
	Error string `json:"error"`
}

// New builds a Server.
func New(cfg Config) *Server {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Run == nil {
		cfg.Run = blitzcoin.Execute
	}
	if cfg.Bus == nil {
		cfg.Bus = trace.Default()
	}
	if cfg.StreamBuffer == 0 {
		cfg.StreamBuffer = 256
	}
	if cfg.Tenants == nil {
		cfg.Tenants = tenant.Open()
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	// The server's base context is the one deliberate root in this package:
	// sweep computations outlive the requests that trigger them (a client
	// disconnect must not waste a half-done sweep), so they run under the
	// server's lifetime, cancelled only by Shutdown.
	ctx, cancel := context.WithCancel(context.Background()) //blitzlint:allow C002 server lifetime root: computations are detached from requests by design and cancelled by Shutdown
	return &Server{
		log:     cfg.Logger,
		run:     cfg.Run,
		cache:   newCache(cfg.CacheEntries, cfg.CacheBytes),
		flights: newFlightGroup(),
		pool:    newPool(cfg.Workers, cfg.QueueDepth),
		metrics: &serverMetrics{
			ledgerAppend: metrics.NewHistogram(ledgerBuckets...),
			requests:     make(map[[2]string]uint64),
			durations:    make(map[string]*metrics.Histogram),
		},
		cluster:    cfg.Cluster,
		bus:        cfg.Bus,
		ledger:     cfg.Ledger,
		tenants:    cfg.Tenants,
		store:      cfg.Store,
		streamBuf:  cfg.StreamBuffer,
		baseCtx:    ctx,
		baseCancel: cancel,
		drainCh:    make(chan struct{}),
	}
}

// instrument wraps a handler with its endpoint's duration histogram,
// looked up once here rather than on every request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	durations := s.metrics.durationHistogram(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		durations.Observe(time.Since(start).Seconds())
	}
}

// Handler returns the daemon's HTTP surface:
//
//	POST /v1/sweep          — execute or serve a blitzcoin.Request
//	POST /v1/shard          — execute one trial-range shard of a request
//	GET  /v1/figures        — list the figure registry
//	GET  /v1/stream         — follow a sweep's live events over SSE (?hash=...)
//	GET  /v1/ledger/proof   — inclusion proof for a ledgered result (?hash=...)
//	GET  /v1/ledger/root    — current ledger size and tree head
//	POST /v1/cluster/join   — worker self-registration (coordinator mode)
//	GET  /v1/cluster/status — worker table (coordinator mode)
//	GET  /healthz           — liveness (process up, engine version)
//	GET  /readyz            — readiness (drain state, queue depth, cluster backlog)
//	GET  /metrics           — Prometheus text exposition
//	     /debug/pprof       — the standard profiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Tenant-facing endpoints run behind the auth middleware: /v1/sweep
	// with the full rate-limit + quota chain, /v1/stream with auth only
	// (subscriptions are long-lived, not per-request work). /v1/shard and
	// /v1/cluster/* are cluster-internal — workers sit behind the
	// deployment's trust boundary and authenticate tenants at the
	// coordinator's edge — and observability endpoints stay open.
	mux.HandleFunc("/v1/sweep", s.instrument("sweep", s.authed(true, s.handleSweep)))
	mux.HandleFunc("/v1/shard", s.instrument("shard", s.handleShard))
	mux.HandleFunc("/v1/figures", s.instrument("figures", s.handleFigures))
	mux.HandleFunc("/v1/stream", s.instrument("stream", s.authed(false, s.handleStream)))
	mux.HandleFunc("/v1/ledger/proof", s.instrument("ledger-proof", s.handleLedgerProof))
	mux.HandleFunc("/v1/ledger/root", s.instrument("ledger-root", s.handleLedgerRoot))
	if s.cluster != nil {
		mux.HandleFunc("/v1/cluster/join", s.instrument("cluster-join", s.cluster.HandleJoin))
		mux.HandleFunc("/v1/cluster/status", s.instrument("cluster-status", s.cluster.HandleStatus))
	}
	mux.HandleFunc("/healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "engine_version": blitzcoin.EngineVersion})
	}))
	mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReady))
	mux.HandleFunc("/metrics", s.instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.writeMetrics(w) // a failed write means the scraper hung up
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleReady serves GET /readyz: 200 while the daemon should receive
// new work, 503 while draining or (in coordinator mode) while no live
// worker can take shards. /healthz stays 200 through both — a draining
// process is alive, just not accepting.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	body := readyBody{
		Status:        "ready",
		EngineVersion: blitzcoin.EngineVersion,
		Draining:      s.draining.Load(),
		QueuedSweeps:  s.pool.adm.QueueTotal(),
		BusySweeps:    s.pool.busy.Load(),
	}
	ready := !body.Draining
	if s.cluster != nil {
		cr := s.cluster.Readiness()
		body.Cluster = &cr
		ready = ready && cr.Ready
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		body.Status = "unready"
		if body.Draining {
			body.Status = "draining"
		}
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, status, body)
}

// BeginDrain flips the server into draining mode without waiting: new
// sweeps and new stream subscriptions are refused with 503, and open SSE
// streams are told to finish their in-flight sweep and end. blitzd calls
// it before http.Server.Shutdown — Shutdown blocks on open connections,
// and an SSE stream that never learned about the drain would hold one
// open for its client's lifetime.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Shutdown drains the server: new sweeps are refused with 503, in-flight
// computations get until ctx ends to finish, then the base context is
// cancelled so stragglers stop dispatching trials.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	err := s.pool.drain(ctx)
	s.baseCancel()
	return err
}

// Inflight reports the requests currently inside the handler.
func (s *Server) Inflight() int64 { return s.metrics.inflight.Load() }

// handleSweep is the daemon's one workhorse endpoint.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST a blitzcoin.Request"})
		return
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()

	var req blitzcoin.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.finish(w, r, start, "", http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	norm := req.Normalized()
	if err := norm.Validate(); err != nil {
		s.finish(w, r, start, string(norm.Kind), http.StatusBadRequest, err)
		return
	}
	hash, err := norm.CanonicalHash()
	if err != nil {
		s.finish(w, r, start, string(norm.Kind), http.StatusBadRequest, err)
		return
	}
	kind := string(norm.Kind)
	t := tenant.FromContext(r.Context())

	if res, ok := s.cache.get(hash); ok {
		t.CountHit()
		t.ChargeBytes(res.size)
		s.respond(w, r, start, norm, hash, res, true, false, "memory")
		return
	}
	// The disk tier sits beneath the memory cache and, like it, is
	// consulted before the drain check: serving already-computed bytes is
	// cheap and a draining daemon keeps doing it until Shutdown. A disk
	// hit is promoted into memory so the next asker skips the read.
	if s.store != nil {
		if b, ok := s.store.Get(hash); ok {
			res, err := s.cache.put(hash, b)
			if err != nil {
				s.finish(w, r, start, kind, http.StatusInternalServerError, err)
				return
			}
			t.CountHit()
			t.ChargeBytes(res.size)
			s.respond(w, r, start, norm, hash, res, true, false, "disk")
			return
		}
	}
	if s.draining.Load() {
		s.finish(w, r, start, kind, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}
	// Past every cache tier: this request triggers (or joins) a real
	// computation, which is what the sweep quota meters. Hits above never
	// reach this line, so cached serving stays free.
	if retry, err := t.AllowSweep(); err != nil {
		s.throttle(w, r, t, retry, err)
		return
	}

	f, leader := s.flights.lease(hash)
	if leader {
		// The computation runs under the server's base context, detached
		// from this request: if the client disconnects mid-sweep, the
		// result still lands in the cache for the next asker.
		done := s.pool.track()
		class := t.PriorityClass()
		go func() {
			defer done()
			res, err := s.compute(s.baseCtx, hash, norm, class)
			s.flights.complete(hash, f, res, err)
		}()
	} else {
		s.metrics.coalesced.Add(1)
	}

	select {
	case <-f.done:
	case <-r.Context().Done():
		// Client gave up; the leader's computation continues.
		s.finish(w, r, start, kind, 499, r.Context().Err())
		return
	}
	if f.err != nil {
		status := http.StatusInternalServerError
		if errors.Is(f.err, context.Canceled) {
			status = http.StatusServiceUnavailable
		}
		if errors.Is(f.err, tenant.ErrQueueFull) {
			// The admission queue for the tenant's class is at its bound —
			// shed load now rather than let the backlog grow. finish sets
			// Retry-After on every 503.
			status = http.StatusServiceUnavailable
			t.CountQueueReject()
		}
		s.finish(w, r, start, kind, status, f.err)
		return
	}
	t.ChargeBytes(f.res.size)
	s.respond(w, r, start, norm, hash, f.res, false, !leader, "")
}

// ShardResponse is the envelope of POST /v1/shard: a marshaled
// blitzcoin.ShardResult plus the same serving annotations as Response.
type ShardResponse struct {
	Version       string          `json:"version"`
	Kind          string          `json:"kind"`
	RequestHash   string          `json:"request_hash"`
	EngineVersion string          `json:"engine_version"`
	Lo            int             `json:"lo"`
	Hi            int             `json:"hi"`
	Cached        bool            `json:"cached"`
	Coalesced     bool            `json:"coalesced"`
	ElapsedMicros int64           `json:"elapsed_micros"`
	Shard         json.RawMessage `json:"shard"`
}

// handleShard executes one trial-range shard of a request — the worker
// half of a distributed sweep. It shares the sweep endpoint's machinery:
// shards are cached under the request hash extended with the trial range,
// coalesced per range, computed on the bounded pool under the base
// context, and refused with 503 while draining.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"POST a blitzcoin.ShardRequest"})
		return
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	start := time.Now()

	var sr blitzcoin.ShardRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		s.finish(w, r, start, "shard", http.StatusBadRequest, fmt.Errorf("decoding shard request: %w", err))
		return
	}
	norm := sr.Request.Normalized()
	if err := norm.Validate(); err != nil {
		s.finish(w, r, start, "shard", http.StatusBadRequest, err)
		return
	}
	hash, err := norm.CanonicalHash()
	if err != nil {
		s.finish(w, r, start, "shard", http.StatusBadRequest, err)
		return
	}
	if sr.OptionsHash != "" && sr.OptionsHash != hash {
		// The coordinator hashed different canonical options — usually a
		// mixed-version cluster. Refuse rather than merge foreign rows.
		s.finish(w, r, start, "shard", http.StatusConflict,
			fmt.Errorf("options hash mismatch: coordinator %s, worker %s (engine %s)",
				short(sr.OptionsHash), short(hash), blitzcoin.EngineVersion))
		return
	}
	units, err := norm.ShardUnits()
	if err != nil {
		s.finish(w, r, start, "shard", http.StatusBadRequest, err)
		return
	}
	if sr.Lo < 0 || sr.Hi > units || sr.Lo >= sr.Hi {
		s.finish(w, r, start, "shard", http.StatusBadRequest,
			fmt.Errorf("shard range [%d,%d) outside [0,%d)", sr.Lo, sr.Hi, units))
		return
	}
	key := fmt.Sprintf("%s:%d-%d", hash, sr.Lo, sr.Hi)

	if res, ok := s.cache.get(key); ok {
		s.respondShard(w, r, start, norm, hash, sr.Lo, sr.Hi, res, true, false)
		return
	}
	// Workers sharing a store directory consult it before executing: a
	// shard another worker (or a previous life of this one) already
	// computed is served from disk instead of re-run.
	if s.store != nil {
		if b, ok := s.store.Get(key); ok {
			res, err := s.cache.put(key, b)
			if err != nil {
				s.finish(w, r, start, "shard", http.StatusInternalServerError, err)
				return
			}
			s.respondShard(w, r, start, norm, hash, sr.Lo, sr.Hi, res, true, false)
			return
		}
	}
	if s.draining.Load() {
		s.finish(w, r, start, "shard", http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}

	// Shard flights are cancellable, unlike sweep flights: the coordinator
	// cancels the losing copy of every speculation race, and keeping the
	// loser running would burn a pool slot on rows the winner already
	// produced byte-identically.
	f, leader := s.flights.leaseShard(key, s.baseCtx)
	if leader {
		done := s.pool.track()
		go func() {
			defer done()
			res, err := s.computeShard(f.ctx, key, norm, sr.Lo, sr.Hi)
			s.flights.complete(key, f, res, err)
		}()
	} else {
		s.metrics.coalesced.Add(1)
	}

	select {
	case <-f.done:
	case <-r.Context().Done():
		s.flights.abandon(f)
		s.finish(w, r, start, "shard", 499, r.Context().Err())
		return
	}
	if f.err != nil {
		status := http.StatusInternalServerError
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, tenant.ErrQueueFull) {
			status = http.StatusServiceUnavailable
		}
		s.finish(w, r, start, "shard", status, f.err)
		return
	}
	s.respondShard(w, r, start, norm, hash, sr.Lo, sr.Hi, f.res, false, !leader)
}

// computeShard runs one validated shard on the bounded pool and caches its
// marshaled ShardResult under the range-extended key. ctx is the flight
// context: it dies with the last interested client.
func (s *Server) computeShard(ctx context.Context, key string, norm blitzcoin.Request, lo, hi int) (rendered, error) {
	if err := s.pool.acquire(ctx, tenant.ClassInteractive); err != nil {
		return rendered{}, err
	}
	defer s.pool.release()
	res, err := blitzcoin.ExecuteShard(ctx, norm, lo, hi)
	if err != nil {
		return rendered{}, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return rendered{}, fmt.Errorf("encoding shard result: %w", err)
	}
	out, err := s.cache.put(key, b)
	if err != nil {
		return rendered{}, err
	}
	s.storePut(key, string(norm.Kind)+"-shard", b)
	return out, nil
}

// respondShard writes the shard success envelope and its log line.
func (s *Server) respondShard(w http.ResponseWriter, r *http.Request, start time.Time, norm blitzcoin.Request, hash string, lo, hi int, shard rendered, cached, coalesced bool) {
	elapsed := time.Since(start)
	writeShardResponse(w, &ShardResponse{
		Version:       blitzcoin.APIVersion,
		Kind:          string(norm.Kind),
		RequestHash:   hash,
		EngineVersion: blitzcoin.EngineVersion,
		Lo:            lo,
		Hi:            hi,
		Cached:        cached,
		Coalesced:     coalesced,
		ElapsedMicros: elapsed.Microseconds(),
	}, shard)
	s.metrics.observeRequest("shard", "ok", elapsed.Seconds())
	s.log.Info("shard",
		"kind", norm.Kind,
		"hash", short(hash),
		"range", fmt.Sprintf("[%d,%d)", lo, hi),
		"status", http.StatusOK,
		"cached", cached,
		"coalesced", coalesced,
		"elapsed", elapsed,
		"remote", r.RemoteAddr,
	)
}

// compute runs one validated request on the bounded pool and caches its
// marshaled result, appending it to the ledger (and stamping the ledger
// provenance into the cached bytes) when one is configured. Callers choose
// the lifetime: handleSweep passes s.baseCtx to detach the computation from
// the triggering request.
func (s *Server) compute(ctx context.Context, hash string, norm blitzcoin.Request, class tenant.Class) (rendered, error) {
	if err := s.pool.acquire(ctx, class); err != nil {
		return rendered{}, err
	}
	defer s.pool.release()
	res, err := s.run(ctx, norm)
	if err != nil {
		return rendered{}, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return rendered{}, fmt.Errorf("encoding result: %w", err)
	}
	b = s.stampLedger(hash, b)
	s.metrics.sweepRows.Add(uint64(resultRows(res)))
	out, err := s.cache.put(hash, b)
	if err != nil {
		return rendered{}, err
	}
	s.storePut(hash, string(norm.Kind), b)
	return out, nil
}

// storePut persists computed bytes to the disk tier. Persistence failures
// degrade to memory-only caching — a full or broken disk never fails the
// sweep that produced the result.
func (s *Server) storePut(key, kind string, b []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, kind, b); err != nil {
		s.log.Warn("store put failed", "key", short(key), "error", err)
	}
}

// stampLedger appends the result to the ledger and returns the bytes with
// ledger provenance (sequence + tree head) stamped into the meta. The SHA
// appended is CanonicalResultSHA of the bytes — the same function a
// verifying client applies to the stamped response, so both sides hash
// the same canonical form. Ledger failures never fail the sweep: the
// result is served unstamped and the error logged.
func (s *Server) stampLedger(hash string, b []byte) []byte {
	if s.ledger == nil {
		return b
	}
	start := time.Now()
	sha, err := blitzcoin.CanonicalResultSHA(b)
	if err != nil {
		s.log.Warn("ledger skip", "hash", short(hash), "error", err)
		return b
	}
	seq, root, err := s.ledger.Append(hash, blitzcoin.EngineVersion, sha)
	if err != nil {
		s.log.Warn("ledger append failed", "hash", short(hash), "error", err)
		return b
	}
	var res blitzcoin.Result
	if err := json.Unmarshal(b, &res); err != nil {
		return b
	}
	res.SetLedgerProvenance(seq, root)
	stamped, err := json.Marshal(&res)
	if err != nil {
		return b
	}
	s.metrics.ledgerAppend.Observe(time.Since(start).Seconds())
	return stamped
}

// resultRows counts the rows/lines a computation produced, for the
// blitzd_sweep_rows_total counter.
func resultRows(res *blitzcoin.Result) int {
	switch {
	case res == nil:
		return 0
	case res.Exchange != nil:
		return len(res.Exchange.Rows)
	case res.Figure != nil:
		return len(res.Figure.Lines)
	case res.SoC != nil:
		return 1
	}
	return 0
}

// respond writes the success envelope and the structured log line. tier
// names the cache tier that served a hit ("memory" or "disk"); empty for
// freshly computed results.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, start time.Time, norm blitzcoin.Request, hash string, result rendered, cached, coalesced bool, tier string) {
	elapsed := time.Since(start)
	writeResponse(w, &Response{
		Version:       blitzcoin.APIVersion,
		Kind:          string(norm.Kind),
		RequestHash:   hash,
		EngineVersion: blitzcoin.EngineVersion,
		Cached:        cached,
		Tier:          tier,
		Coalesced:     coalesced,
		ElapsedMicros: elapsed.Microseconds(),
	}, result)
	s.metrics.observeRequest(string(norm.Kind), "ok", elapsed.Seconds())
	s.log.Info("sweep",
		"kind", norm.Kind,
		"hash", short(hash),
		"status", http.StatusOK,
		"cached", cached,
		"tier", tier,
		"coalesced", coalesced,
		"elapsed", elapsed,
		"remote", r.RemoteAddr,
	)
}

// finish writes an error response and the structured log line.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, start time.Time, kind string, status int, err error) {
	elapsed := time.Since(start)
	if kind == "" {
		kind = "invalid"
	}
	label := "error"
	switch {
	case status == http.StatusBadRequest:
		label = "invalid"
	case status == http.StatusConflict:
		label = "mismatch"
	case status == 499:
		label = "cancelled"
	case status == http.StatusServiceUnavailable:
		label = "unavailable"
		// Tell well-behaved clients (and the cluster coordinator) when to
		// come back: the drain window is seconds, not minutes.
		w.Header().Set("Retry-After", "5")
	}
	writeJSON(w, status, errorBody{err.Error()})
	s.metrics.observeRequest(kind, label, elapsed.Seconds())
	s.log.Warn("sweep failed",
		"kind", kind,
		"status", status,
		"error", err,
		"elapsed", elapsed,
		"remote", r.RemoteAddr,
	)
}

// handleFigures lists the figure registry so clients can discover names.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{"GET only"})
		return
	}
	type entry struct {
		Name  string `json:"name"`
		Title string `json:"title"`
	}
	var out []entry
	for _, name := range blitzcoin.FigureNames() {
		title, _ := blitzcoin.FigureTitle(name)
		out = append(out, entry{name, title})
	}
	writeJSON(w, http.StatusOK, out)
}

// writeJSON writes an error or control body; success envelopes go through
// writeResponse and writeShardResponse.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //blitzlint:allow R001 response encode: the only failure mode is a disconnected client, which the request handler cannot act on
}

// short abbreviates a hash for log lines.
func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
