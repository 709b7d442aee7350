package server

import (
	"cmp"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"blitzcoin/internal/metrics"
	"blitzcoin/internal/tenant"
)

// durationBuckets bound blitzd_request_duration_seconds (seconds): memory
// hits (tens of µs), disk hits and small computes, up to figure sweeps.
var durationBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.02, 0.1, 0.5, 2.5, 10, 60}

// ledgerBuckets bound blitzd_ledger_append_seconds (seconds): a plain
// append takes 5–60 µs, one that pays the seal fsync milliseconds.
var ledgerBuckets = []float64{1e-05, 5e-05, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.1, 1}

// serverMetrics are the instruments the handler path updates; the cache,
// pool, bus, ledger, store and tenants are sampled at scrape time instead.
type serverMetrics struct {
	coalesced     atomic.Uint64
	sweepRows     atomic.Uint64
	inflight      atomic.Int64
	streamEvents  atomic.Uint64 // SSE events forwarded to /v1/stream subscribers
	streamDropped atomic.Uint64 // events dropped behind slow subscribers
	// ledgerAppend times ledger appends: canonical SHA, the append, the
	// seal fsync every batch, and the provenance restamp.
	ledgerAppend *metrics.Histogram

	mu sync.Mutex
	// requests counts finished requests by {kind, status}; reqSeconds and
	// reqCount back the request-latency summary.
	requests   map[[2]string]uint64
	reqSeconds float64
	reqCount   uint64
	// durations are the request-duration histograms by HTTP endpoint.
	durations map[string]*metrics.Histogram
}

// durationHistogram returns endpoint's request-duration histogram,
// registering it on first use.
func (m *serverMetrics) durationHistogram(endpoint string) *metrics.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.durations[endpoint] == nil {
		m.durations[endpoint] = metrics.NewHistogram(durationBuckets...)
	}
	return m.durations[endpoint]
}

func (m *serverMetrics) observeRequest(kind, status string, seconds float64) {
	m.mu.Lock()
	m.requests[[2]string{kind, status}]++
	m.reqSeconds += seconds
	m.reqCount++
	m.mu.Unlock()
}

// writeMetrics renders the /metrics catalog in a fixed order. Without a
// store the disk-tier section is absent, not zero, so dashboards can tell
// "no disk tier" from "idle disk tier".
func (s *Server) writeMetrics(out io.Writer) error {
	m := s.metrics
	m.mu.Lock()
	requests, durations := maps.Clone(m.requests), maps.Clone(m.durations)
	reqSeconds, reqCount := m.reqSeconds, m.reqCount
	m.mu.Unlock()
	outcomes := make([][2]string, 0, len(requests))
	for kindStatus := range requests {
		outcomes = append(outcomes, kindStatus)
	}
	slices.SortFunc(outcomes, func(a, b [2]string) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})

	w := metrics.NewWriter(out)
	w.Family("blitzd_requests_total", "counter", "Finished sweep requests by kind and status.")
	for _, o := range outcomes {
		w.Uint("blitzd_requests_total", requests[o], "kind", o[0], "status", o[1])
	}
	w.Family("blitzd_request_seconds", "summary", "Wall-clock request latency.")
	w.Float("blitzd_request_seconds_sum", reqSeconds)
	w.Uint("blitzd_request_seconds_count", reqCount)
	w.Family("blitzd_request_duration_seconds", "histogram", "Request latency by HTTP endpoint.")
	endpoints := make([]string, 0, len(durations))
	for ep := range durations {
		endpoints = append(endpoints, ep)
	}
	slices.Sort(endpoints)
	for _, ep := range endpoints {
		if h := durations[ep]; h.Count() > 0 {
			w.Histogram("blitzd_request_duration_seconds", h, "endpoint", ep)
		}
	}

	hits, misses, evictions, entries, bytes := s.cache.stats()
	w.Counter("blitzd_cache_hits_total", "Requests served from the result cache.", hits)
	w.Counter("blitzd_cache_misses_total", "Requests that missed the memory tier (served from disk or computed).", misses)
	w.Counter("blitzd_cache_evictions_total", "Results evicted by the LRU bounds.", evictions)
	w.Gauge("blitzd_cache_entries", "Results currently cached.", int64(entries))
	w.Gauge("blitzd_cache_bytes", "Result bytes currently cached.", bytes)
	w.Counter("blitzd_coalesced_total", "Requests that shared another request's computation.", m.coalesced.Load())
	w.Counter("blitzd_sweep_rows_total", "Result rows/lines computed (not served from cache).", m.sweepRows.Load())
	w.Gauge("blitzd_inflight_requests", "Requests currently being handled.", m.inflight.Load())
	w.Gauge("blitzd_queue_depth", "Computations waiting for a worker slot.", s.pool.adm.QueueTotal())
	w.Family("blitzd_admission_queue_depth", "gauge", "Waiting computations by admission class.")
	for class, depth := range s.pool.adm.Depths() {
		w.Uint("blitzd_admission_queue_depth", uint64(depth), "class", tenant.Class(class).String())
	}
	w.Gauge("blitzd_workers_busy", "Worker slots currently computing.", s.pool.busy.Load())
	w.Gauge("blitzd_stream_subscribers", "Open /v1/stream subscriptions.", int64(s.bus.Subscribers()))
	w.Counter("blitzd_stream_events_total", "Events forwarded to stream subscribers.", m.streamEvents.Load())
	w.Counter("blitzd_stream_dropped_total", "Events dropped behind slow stream subscribers.", m.streamDropped.Load())
	var ledgerEntries uint64
	if s.ledger != nil {
		ledgerEntries = s.ledger.Size()
	}
	w.Gauge("blitzd_ledger_entries", "Results recorded in the ledger.", int64(ledgerEntries))
	w.Family("blitzd_ledger_append_seconds", "histogram", "Ledger append latency (canonical SHA, append, seal fsync, restamp).")
	w.Histogram("blitzd_ledger_append_seconds", m.ledgerAppend)

	if st, ok := s.cache.diskStats(); ok {
		var warmed int64
		if st.Warmed {
			warmed = 1
		}
		w.Counter("blitzd_store_hits_total", "Results served from the disk tier.", st.Hits)
		w.Counter("blitzd_store_misses_total", "Disk-tier lookups that found nothing.", st.Misses)
		w.Counter("blitzd_store_writes_total", "Results persisted to the disk tier.", st.Writes)
		w.Counter("blitzd_store_evictions_total", "Blobs evicted by the size bound.", st.Evictions)
		w.Counter("blitzd_store_corrupt_total", "Blobs dropped for failing checksum verification.", st.Corrupt)
		w.Counter("blitzd_store_errors_total", "Disk-tier I/O failures (reads and writes).", st.Errors)
		w.Gauge("blitzd_store_entries", "Blobs currently indexed in the disk tier.", int64(st.Entries))
		w.Gauge("blitzd_store_bytes", "Blob bytes currently indexed in the disk tier.", st.Bytes)
		w.Gauge("blitzd_store_warmed", "Whether the boot index scan has completed.", warmed)
	}

	tenants := s.tenants.Tenants()
	snaps := make([]tenant.Counters, len(tenants))
	for i, t := range tenants {
		snaps[i] = t.Snapshot()
	}
	w.Family("blitzd_tenant_requests_total", "counter", "Admitted requests by tenant.")
	for i, t := range tenants {
		w.Uint("blitzd_tenant_requests_total", snaps[i].Requests, "tenant", t.Name)
	}
	w.Family("blitzd_tenant_cache_hits_total", "counter", "Requests served from a cache tier, by tenant.")
	for i, t := range tenants {
		w.Uint("blitzd_tenant_cache_hits_total", snaps[i].CacheHits, "tenant", t.Name)
	}
	w.Family("blitzd_tenant_sweeps_total", "counter", "Uncached sweep computations charged, by tenant.")
	for i, t := range tenants {
		w.Uint("blitzd_tenant_sweeps_total", snaps[i].Sweeps, "tenant", t.Name)
	}
	w.Family("blitzd_tenant_bytes_total", "counter", "Result bytes served, by tenant.")
	for i, t := range tenants {
		w.Uint("blitzd_tenant_bytes_total", snaps[i].BytesServed, "tenant", t.Name)
	}
	w.Family("blitzd_tenant_rejects_total", "counter", "Rejected requests by tenant and reason.")
	for i, t := range tenants {
		w.Uint("blitzd_tenant_rejects_total", snaps[i].RejectRate, "tenant", t.Name, "reason", "rate")
		w.Uint("blitzd_tenant_rejects_total", snaps[i].RejectQuota, "tenant", t.Name, "reason", "quota")
		w.Uint("blitzd_tenant_rejects_total", snaps[i].RejectedQueue, "tenant", t.Name, "reason", "queue")
	}
	w.Counter("blitzd_unauthenticated_total", "Requests rejected with 401.", s.tenants.Unauthenticated())

	if s.cluster != nil {
		s.cluster.WriteMetrics(w)
	}
	return w.Err()
}
