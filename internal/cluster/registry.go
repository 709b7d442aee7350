package cluster

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"blitzcoin"
	"blitzcoin/internal/metrics"
)

// worker is one registry entry: a blitzd worker the coordinator may
// dispatch shards to.
type worker struct {
	url string
	// static workers come from the coordinator's -workers list: they are
	// never removed, only marked dead, and revive on a successful probe.
	// Joined workers (POST /v1/cluster/join) are evicted outright once
	// unreachable past the eviction window.
	static bool
	alive  bool
	// lastSeen is the last successful probe or join; eviction measures
	// from here.
	lastSeen time.Time
	// inflight counts shards currently dispatched to this worker; bounded
	// by maxInflight (backpressure).
	inflight int

	// Scheduling counters, surfaced per worker in /v1/cluster/status and
	// /metrics.
	steals     uint64 // shards picked up after another worker's failed attempt
	specWins   uint64 // speculative copies that finished first
	specLosses uint64 // speculative or primary copies beaten by the other copy
}

// registry is the coordinator's worker table. All acquisition is
// non-blocking: the sweep scheduler polls for slots on its wake loop
// instead of parking on a condition variable, which keeps elastic
// membership (join, eviction) from ever wedging a dispatcher.
type registry struct {
	mu      sync.Mutex
	workers map[string]*worker
}

func newRegistry(static []string) *registry {
	r := &registry{workers: make(map[string]*worker, len(static))}
	now := time.Now()
	for _, u := range static {
		// Optimistically alive: the first dispatch may beat the first
		// heartbeat, and a transport error demotes the worker anyway.
		r.workers[u] = &worker{url: u, static: true, alive: true, lastSeen: now}
	}
	return r
}

// tryAcquire reserves an in-flight slot on the least-loaded live worker
// below maxInflight whose URL is not in exclude, without blocking.
// It returns the worker URL and ok=true on success; anyAlive reports
// whether any live worker exists at all (excluded or saturated ones
// included), so the caller can distinguish "try again shortly" from
// "the cluster is empty".
func (r *registry) tryAcquire(exclude map[string]bool) (url string, ok, anyAlive bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *worker
	for _, w := range r.workers {
		if !w.alive {
			continue
		}
		anyAlive = true
		if w.inflight >= maxInflight || exclude[w.url] {
			continue
		}
		if best == nil || w.inflight < best.inflight || (w.inflight == best.inflight && w.url < best.url) {
			best = w
		}
	}
	if best == nil {
		return "", false, anyAlive
	}
	best.inflight++
	return best.url, true, true
}

// release returns an in-flight slot.
func (r *registry) release(url string) {
	r.mu.Lock()
	if w := r.workers[url]; w != nil && w.inflight > 0 {
		w.inflight--
	}
	r.mu.Unlock()
}

// markDead demotes a worker after a transport failure so the next
// dispatch avoids it immediately instead of waiting for the heartbeat to
// notice. A later successful probe revives it.
func (r *registry) markDead(url string) {
	r.mu.Lock()
	if w := r.workers[url]; w != nil && w.alive {
		w.alive = false
	}
	r.mu.Unlock()
}

// markAlive records a successful probe or join; static applies only to a
// worker not yet registered.
func (r *registry) markAlive(url string, static bool) {
	r.mu.Lock()
	w := r.workers[url]
	if w == nil {
		w = &worker{url: url, static: static}
		r.workers[url] = w
	}
	w.alive = true
	w.lastSeen = time.Now()
	r.mu.Unlock()
}

// addSteal credits url with picking up a shard another worker failed.
func (r *registry) addSteal(url string) {
	r.mu.Lock()
	if w := r.workers[url]; w != nil {
		w.steals++
	}
	r.mu.Unlock()
}

// addSpecWin credits url's speculative copy with finishing first.
func (r *registry) addSpecWin(url string) {
	r.mu.Lock()
	if w := r.workers[url]; w != nil {
		w.specWins++
	}
	r.mu.Unlock()
}

// addSpecLoss records that url's copy of a speculated shard was beaten.
func (r *registry) addSpecLoss(url string) {
	r.mu.Lock()
	if w := r.workers[url]; w != nil {
		w.specLosses++
	}
	r.mu.Unlock()
}

// evictStale demotes workers unreachable past the eviction window:
// static workers stay listed as dead, joined workers are removed.
func (r *registry) evictStale(window time.Duration) (evicted []string) {
	cutoff := time.Now().Add(-window)
	r.mu.Lock()
	for url, w := range r.workers {
		if w.lastSeen.After(cutoff) {
			continue
		}
		if w.static {
			w.alive = false
			continue
		}
		delete(r.workers, url)
		evicted = append(evicted, url)
	}
	r.mu.Unlock()
	return evicted
}

// urls returns every registered worker URL, sorted.
func (r *registry) urls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.workers))
	for u := range r.workers {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// aliveCount reports the number of live workers.
func (r *registry) aliveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// WorkerStatus is one row of the /v1/cluster/status worker table.
type WorkerStatus struct {
	URL      string `json:"url"`
	Static   bool   `json:"static"`
	Alive    bool   `json:"alive"`
	Inflight int    `json:"inflight"`
	// LastSeenMillisAgo is the age of the last successful probe or join.
	LastSeenMillisAgo int64 `json:"last_seen_millis_ago"`
	// Scheduling counters: shards stolen from failed peers, and
	// speculative-copy outcomes.
	Steals            uint64 `json:"steals"`
	SpeculativeWins   uint64 `json:"speculative_wins"`
	SpeculativeLosses uint64 `json:"speculative_losses"`
}

func (r *registry) snapshot() []WorkerStatus {
	now := time.Now()
	r.mu.Lock()
	out := make([]WorkerStatus, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerStatus{
			URL:               w.url,
			Static:            w.static,
			Alive:             w.alive,
			Inflight:          w.inflight,
			LastSeenMillisAgo: now.Sub(w.lastSeen).Milliseconds(),
			Steals:            w.steals,
			SpeculativeWins:   w.specWins,
			SpeculativeLosses: w.specLosses,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// joinBody is the wire form of POST /v1/cluster/join.
type joinBody struct {
	URL string `json:"url"`
}

// HandleJoin serves POST /v1/cluster/join: idempotent worker
// self-registration that doubles as a keepalive.
func (c *Coordinator) HandleJoin(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST {\"url\": ...}"})
		return
	}
	var body joinBody
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil || body.URL == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "body must be {\"url\": \"http://host:port\"}"})
		return
	}
	c.registry.markAlive(body.URL, false)
	c.log.Info("cluster join", "worker", body.URL)
	writeJSON(w, http.StatusOK, map[string]string{"status": "joined", "url": body.URL})
}

// StatusBody is the response of GET /v1/cluster/status.
type StatusBody struct {
	EngineVersion       string         `json:"engine_version"`
	Workers             []WorkerStatus `json:"workers"`
	QueueDepth          int64          `json:"queue_depth"`
	RunningShards       int64          `json:"running_shards"`
	ShardsDispatched    uint64         `json:"shards_dispatched"`
	ShardsRetried       uint64         `json:"shards_retried"`
	ShardsFailed        uint64         `json:"shards_failed"`
	ShardsSpeculated    uint64         `json:"shards_speculated"`
	SpeculativeWins     uint64         `json:"speculative_wins"`
	DuplicatesDiscarded uint64         `json:"duplicates_discarded"`
	SweepsMerged        uint64         `json:"sweeps_merged"`
	// ShardLatencyP50Millis / P99Millis estimate the completed-shard
	// service latency quantiles from the blitzd_cluster_shard_latency_seconds
	// histogram (interpolated within a bucket); 0 until any shard
	// completes.
	ShardLatencyP50Millis float64 `json:"shard_latency_p50_millis"`
	ShardLatencyP99Millis float64 `json:"shard_latency_p99_millis"`
}

// HandleStatus serves GET /v1/cluster/status.
func (c *Coordinator) HandleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, StatusBody{
		EngineVersion:         blitzcoin.EngineVersion,
		Workers:               c.registry.snapshot(),
		QueueDepth:            c.queueDepth.Load(),
		RunningShards:         c.runningShards.Load(),
		ShardsDispatched:      c.dispatched.Load(),
		ShardsRetried:         c.retried.Load(),
		ShardsFailed:          c.failed.Load(),
		ShardsSpeculated:      c.speculated.Load(),
		SpeculativeWins:       c.specWins.Load(),
		DuplicatesDiscarded:   c.dupDiscarded.Load(),
		SweepsMerged:          c.merged.Load(),
		ShardLatencyP50Millis: c.shardLatency.Quantile(0.50) * 1000,
		ShardLatencyP99Millis: c.shardLatency.Quantile(0.99) * 1000,
	})
}

// WriteMetrics appends the cluster section of /metrics: shard counters,
// scheduler gauges, the shard latency histogram, and per-worker series.
func (c *Coordinator) WriteMetrics(w *metrics.Writer) {
	w.Counter("blitzd_cluster_shards_dispatched_total", "Shard dispatches sent to workers (including retries and speculative copies).", c.dispatched.Load())
	w.Counter("blitzd_cluster_shards_retried_total", "Shard dispatches retried after a worker failure.", c.retried.Load())
	w.Counter("blitzd_cluster_shards_failed_total", "Shards that exhausted every dispatch attempt.", c.failed.Load())
	w.Counter("blitzd_cluster_shards_speculated_total", "Speculative straggler copies launched.", c.speculated.Load())
	w.Counter("blitzd_cluster_speculative_wins_total", "Speculative copies that finished before the original.", c.specWins.Load())
	w.Counter("blitzd_cluster_duplicates_discarded_total", "Late or duplicate shard completions discarded idempotently.", c.dupDiscarded.Load())
	w.Counter("blitzd_cluster_sweeps_merged_total", "Distributed sweeps merged successfully.", c.merged.Load())
	w.Gauge("blitzd_cluster_queue_depth", "Shards waiting for a worker slot.", c.queueDepth.Load())
	w.Gauge("blitzd_cluster_running_shards", "Shard copies currently executing on workers.", c.runningShards.Load())
	w.Family("blitzd_cluster_shard_latency_seconds", "histogram", "Completed-shard service latency.")
	w.Histogram("blitzd_cluster_shard_latency_seconds", c.shardLatency)
	snap := c.registry.snapshot()
	w.Family("blitzd_cluster_worker_up", "gauge", "Worker liveness (1 alive, 0 dead) by worker URL.")
	for _, ws := range snap {
		var up uint64
		if ws.Alive {
			up = 1
		}
		w.Uint("blitzd_cluster_worker_up", up, "worker", ws.URL)
	}
	w.Family("blitzd_cluster_worker_steals_total", "counter", "Shards a worker picked up after another worker's failed attempt.")
	for _, ws := range snap {
		w.Uint("blitzd_cluster_worker_steals_total", ws.Steals, "worker", ws.URL)
	}
	w.Family("blitzd_cluster_worker_spec_wins_total", "counter", "Speculative copies a worker won.")
	for _, ws := range snap {
		w.Uint("blitzd_cluster_worker_spec_wins_total", ws.SpeculativeWins, "worker", ws.URL)
	}
	w.Family("blitzd_cluster_worker_spec_losses_total", "counter", "Copies on a worker beaten by the other copy of a speculated shard.")
	for _, ws := range snap {
		w.Uint("blitzd_cluster_worker_spec_losses_total", ws.SpeculativeLosses, "worker", ws.URL)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //blitzlint:allow R001 response encode: the only failure mode is a disconnected client, which the status handler cannot act on
}
