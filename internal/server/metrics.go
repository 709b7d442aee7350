package server

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"blitzcoin/internal/ledger"
	"blitzcoin/internal/store"
	"blitzcoin/internal/tenant"
	"blitzcoin/internal/trace"
)

// durationBuckets are the upper bounds (seconds) of the per-endpoint
// blitzd_request_duration_seconds histogram. Spans cached hits (sub-ms)
// through multi-minute figure sweeps.
var durationBuckets = []float64{0.005, 0.02, 0.1, 0.5, 2.5, 10, 60}

// histogram accumulates one endpoint's latency distribution. counts[i]
// holds observations that landed in (buckets[i-1], buckets[i]]; overflow
// observations only appear in count (the +Inf bucket).
type histogram struct {
	counts [8]uint64 // len(durationBuckets)+1, last slot is overflow
	sum    float64
	count  uint64
}

func (h *histogram) observe(seconds float64) {
	slot := len(durationBuckets)
	for i, ub := range durationBuckets {
		if seconds <= ub {
			slot = i
			break
		}
	}
	h.counts[slot]++
	h.sum += seconds
	h.count++
}

// metrics is a hand-rolled Prometheus text-exposition registry: counters
// the handler path increments plus gauges sampled from the cache and pool
// at scrape time. Stdlib-only by design.
type metrics struct {
	mu sync.Mutex
	// requests[kind][status] counts finished requests.
	requests map[string]map[string]uint64
	// reqSecondsSum/reqSecondsCount back a summary of request latency.
	reqSecondsSum   float64
	reqSecondsCount uint64
	// durations[endpoint] is the request-duration histogram of one HTTP
	// endpoint (every mux route except pprof).
	durations map[string]*histogram
	coalesced uint64
	sweepRows uint64
	inflight  int64
	// streamEvents/streamDropped count SSE events forwarded to and dropped
	// behind /v1/stream subscribers; ledgerAppends times ledger appends
	// (canonical SHA, the append, the seal fsync every batch, and the
	// provenance restamp).
	streamEvents  uint64
	streamDropped uint64
	ledgerAppends histogram
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[string]map[string]uint64),
		durations: make(map[string]*histogram),
	}
}

func (m *metrics) observeDuration(endpoint string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.durations[endpoint]
	if h == nil {
		h = &histogram{}
		m.durations[endpoint] = h
	}
	h.observe(seconds)
}

func (m *metrics) observeRequest(kind, status string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[kind]
	if byStatus == nil {
		byStatus = make(map[string]uint64)
		m.requests[kind] = byStatus
	}
	byStatus[status]++
	m.reqSecondsSum += seconds
	m.reqSecondsCount++
}

func (m *metrics) addCoalesced() {
	m.mu.Lock()
	m.coalesced++
	m.mu.Unlock()
}

func (m *metrics) addSweepRows(n int) {
	m.mu.Lock()
	m.sweepRows += uint64(n)
	m.mu.Unlock()
}

func (m *metrics) addStreamEvents(n uint64) {
	m.mu.Lock()
	m.streamEvents += n
	m.mu.Unlock()
}

func (m *metrics) addStreamDropped(n uint64) {
	m.mu.Lock()
	m.streamDropped += n
	m.mu.Unlock()
}

func (m *metrics) observeLedgerAppend(seconds float64) {
	m.mu.Lock()
	m.ledgerAppends.observe(seconds)
	m.mu.Unlock()
}

func (m *metrics) enter() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

func (m *metrics) exit() {
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
}

func (m *metrics) inflightNow() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}

// write renders the catalog in Prometheus text exposition format, in a
// deterministic order. bus, led, st, and reg are sampled at scrape time;
// led and st may be nil (not configured — their sections read zero or are
// omitted).
func (m *metrics) write(w io.Writer, c *cache, p *pool, bus *trace.Bus, led *ledger.Ledger, st *store.Store, reg *tenant.Registry) {
	m.mu.Lock()
	type labeled struct {
		kind, status string
		n            uint64
	}
	var reqs []labeled
	for kind, byStatus := range m.requests {
		for status, n := range byStatus {
			reqs = append(reqs, labeled{kind, status, n})
		}
	}
	sum, count := m.reqSecondsSum, m.reqSecondsCount
	coalesced, sweepRows, inflight := m.coalesced, m.sweepRows, m.inflight
	streamEvents, streamDropped := m.streamEvents, m.streamDropped
	ledgerAppends := m.ledgerAppends
	endpoints := make([]string, 0, len(m.durations))
	for ep := range m.durations {
		endpoints = append(endpoints, ep)
	}
	hists := make(map[string]histogram, len(m.durations))
	for ep, h := range m.durations {
		hists[ep] = *h
	}
	m.mu.Unlock()
	sort.Strings(endpoints)
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].kind != reqs[j].kind {
			return reqs[i].kind < reqs[j].kind
		}
		return reqs[i].status < reqs[j].status
	})

	hits, misses, evictions, entries, bytes := c.stats()

	fmt.Fprintln(w, "# HELP blitzd_requests_total Finished sweep requests by kind and status.")
	fmt.Fprintln(w, "# TYPE blitzd_requests_total counter")
	for _, r := range reqs {
		fmt.Fprintf(w, "blitzd_requests_total{kind=%q,status=%q} %d\n", r.kind, r.status, r.n)
	}
	fmt.Fprintln(w, "# HELP blitzd_request_seconds Wall-clock request latency.")
	fmt.Fprintln(w, "# TYPE blitzd_request_seconds summary")
	fmt.Fprintf(w, "blitzd_request_seconds_sum %g\n", sum)
	fmt.Fprintf(w, "blitzd_request_seconds_count %d\n", count)
	fmt.Fprintln(w, "# HELP blitzd_request_duration_seconds Request latency by HTTP endpoint.")
	fmt.Fprintln(w, "# TYPE blitzd_request_duration_seconds histogram")
	for _, ep := range endpoints {
		h := hists[ep]
		var cum uint64
		for i, ub := range durationBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "blitzd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, fmt.Sprintf("%g", ub), cum)
		}
		fmt.Fprintf(w, "blitzd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, h.count)
		fmt.Fprintf(w, "blitzd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(w, "blitzd_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.count)
	}
	fmt.Fprintln(w, "# HELP blitzd_cache_hits_total Requests served from the result cache.")
	fmt.Fprintln(w, "# TYPE blitzd_cache_hits_total counter")
	fmt.Fprintf(w, "blitzd_cache_hits_total %d\n", hits)
	fmt.Fprintln(w, "# HELP blitzd_cache_misses_total Requests that had to compute.")
	fmt.Fprintln(w, "# TYPE blitzd_cache_misses_total counter")
	fmt.Fprintf(w, "blitzd_cache_misses_total %d\n", misses)
	fmt.Fprintln(w, "# HELP blitzd_cache_evictions_total Results evicted by the LRU bounds.")
	fmt.Fprintln(w, "# TYPE blitzd_cache_evictions_total counter")
	fmt.Fprintf(w, "blitzd_cache_evictions_total %d\n", evictions)
	fmt.Fprintln(w, "# HELP blitzd_cache_entries Results currently cached.")
	fmt.Fprintln(w, "# TYPE blitzd_cache_entries gauge")
	fmt.Fprintf(w, "blitzd_cache_entries %d\n", entries)
	fmt.Fprintln(w, "# HELP blitzd_cache_bytes Result bytes currently cached.")
	fmt.Fprintln(w, "# TYPE blitzd_cache_bytes gauge")
	fmt.Fprintf(w, "blitzd_cache_bytes %d\n", bytes)
	fmt.Fprintln(w, "# HELP blitzd_coalesced_total Requests that shared another request's computation.")
	fmt.Fprintln(w, "# TYPE blitzd_coalesced_total counter")
	fmt.Fprintf(w, "blitzd_coalesced_total %d\n", coalesced)
	fmt.Fprintln(w, "# HELP blitzd_sweep_rows_total Result rows/lines computed (not served from cache).")
	fmt.Fprintln(w, "# TYPE blitzd_sweep_rows_total counter")
	fmt.Fprintf(w, "blitzd_sweep_rows_total %d\n", sweepRows)
	fmt.Fprintln(w, "# HELP blitzd_inflight_requests Requests currently being handled.")
	fmt.Fprintln(w, "# TYPE blitzd_inflight_requests gauge")
	fmt.Fprintf(w, "blitzd_inflight_requests %d\n", inflight)
	fmt.Fprintln(w, "# HELP blitzd_queue_depth Computations waiting for a worker slot.")
	fmt.Fprintln(w, "# TYPE blitzd_queue_depth gauge")
	fmt.Fprintf(w, "blitzd_queue_depth %d\n", p.queuedNow())
	fmt.Fprintln(w, "# HELP blitzd_admission_queue_depth Waiting computations by admission class.")
	fmt.Fprintln(w, "# TYPE blitzd_admission_queue_depth gauge")
	depths := p.queueDepths()
	for class, depth := range depths {
		fmt.Fprintf(w, "blitzd_admission_queue_depth{class=%q} %d\n", tenant.Class(class).String(), depth)
	}
	fmt.Fprintln(w, "# HELP blitzd_workers_busy Worker slots currently computing.")
	fmt.Fprintln(w, "# TYPE blitzd_workers_busy gauge")
	fmt.Fprintf(w, "blitzd_workers_busy %d\n", p.busy.Load())
	fmt.Fprintln(w, "# HELP blitzd_stream_subscribers Open /v1/stream subscriptions.")
	fmt.Fprintln(w, "# TYPE blitzd_stream_subscribers gauge")
	subs := 0
	if bus != nil {
		subs = bus.Subscribers()
	}
	fmt.Fprintf(w, "blitzd_stream_subscribers %d\n", subs)
	fmt.Fprintln(w, "# HELP blitzd_stream_events_total Events forwarded to stream subscribers.")
	fmt.Fprintln(w, "# TYPE blitzd_stream_events_total counter")
	fmt.Fprintf(w, "blitzd_stream_events_total %d\n", streamEvents)
	fmt.Fprintln(w, "# HELP blitzd_stream_dropped_total Events dropped behind slow stream subscribers.")
	fmt.Fprintln(w, "# TYPE blitzd_stream_dropped_total counter")
	fmt.Fprintf(w, "blitzd_stream_dropped_total %d\n", streamDropped)
	fmt.Fprintln(w, "# HELP blitzd_ledger_entries Results recorded in the ledger.")
	fmt.Fprintln(w, "# TYPE blitzd_ledger_entries gauge")
	var entriesNow uint64
	if led != nil {
		entriesNow = led.Size()
	}
	fmt.Fprintf(w, "blitzd_ledger_entries %d\n", entriesNow)
	fmt.Fprintln(w, "# HELP blitzd_ledger_append_seconds Ledger append latency (canonical SHA, append, seal fsync, restamp).")
	fmt.Fprintln(w, "# TYPE blitzd_ledger_append_seconds histogram")
	var cumLedger uint64
	for i, ub := range durationBuckets {
		cumLedger += ledgerAppends.counts[i]
		fmt.Fprintf(w, "blitzd_ledger_append_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), cumLedger)
	}
	fmt.Fprintf(w, "blitzd_ledger_append_seconds_bucket{le=\"+Inf\"} %d\n", ledgerAppends.count)
	fmt.Fprintf(w, "blitzd_ledger_append_seconds_sum %g\n", ledgerAppends.sum)
	fmt.Fprintf(w, "blitzd_ledger_append_seconds_count %d\n", ledgerAppends.count)

	writeStoreMetrics(w, st)
	writeTenantMetrics(w, reg)
}

// writeStoreMetrics renders the disk-tier section; nil means no store is
// configured and the section is omitted entirely (absent, not zero, so
// dashboards can tell "no disk tier" from "idle disk tier").
func writeStoreMetrics(w io.Writer, st *store.Store) {
	if st == nil {
		return
	}
	s := st.Stats()
	warmed := 0
	if s.Warmed {
		warmed = 1
	}
	fmt.Fprintln(w, "# HELP blitzd_store_hits_total Results served from the disk tier.")
	fmt.Fprintln(w, "# TYPE blitzd_store_hits_total counter")
	fmt.Fprintf(w, "blitzd_store_hits_total %d\n", s.Hits)
	fmt.Fprintln(w, "# HELP blitzd_store_misses_total Disk-tier lookups that found nothing.")
	fmt.Fprintln(w, "# TYPE blitzd_store_misses_total counter")
	fmt.Fprintf(w, "blitzd_store_misses_total %d\n", s.Misses)
	fmt.Fprintln(w, "# HELP blitzd_store_writes_total Results persisted to the disk tier.")
	fmt.Fprintln(w, "# TYPE blitzd_store_writes_total counter")
	fmt.Fprintf(w, "blitzd_store_writes_total %d\n", s.Writes)
	fmt.Fprintln(w, "# HELP blitzd_store_evictions_total Blobs evicted by the size bound.")
	fmt.Fprintln(w, "# TYPE blitzd_store_evictions_total counter")
	fmt.Fprintf(w, "blitzd_store_evictions_total %d\n", s.Evictions)
	fmt.Fprintln(w, "# HELP blitzd_store_corrupt_total Blobs dropped for failing checksum verification.")
	fmt.Fprintln(w, "# TYPE blitzd_store_corrupt_total counter")
	fmt.Fprintf(w, "blitzd_store_corrupt_total %d\n", s.Corrupt)
	fmt.Fprintln(w, "# HELP blitzd_store_errors_total Disk-tier I/O failures (reads and writes).")
	fmt.Fprintln(w, "# TYPE blitzd_store_errors_total counter")
	fmt.Fprintf(w, "blitzd_store_errors_total %d\n", s.Errors)
	fmt.Fprintln(w, "# HELP blitzd_store_entries Blobs currently indexed in the disk tier.")
	fmt.Fprintln(w, "# TYPE blitzd_store_entries gauge")
	fmt.Fprintf(w, "blitzd_store_entries %d\n", s.Entries)
	fmt.Fprintln(w, "# HELP blitzd_store_bytes Blob bytes currently indexed in the disk tier.")
	fmt.Fprintln(w, "# TYPE blitzd_store_bytes gauge")
	fmt.Fprintf(w, "blitzd_store_bytes %d\n", s.Bytes)
	fmt.Fprintln(w, "# HELP blitzd_store_warmed Whether the boot index scan has completed.")
	fmt.Fprintln(w, "# TYPE blitzd_store_warmed gauge")
	fmt.Fprintf(w, "blitzd_store_warmed %d\n", warmed)
}

// writeTenantMetrics renders the per-tenant serving counters.
func writeTenantMetrics(w io.Writer, reg *tenant.Registry) {
	if reg == nil {
		return
	}
	tenants := reg.Tenants()
	snaps := make([]tenant.Counters, len(tenants))
	for i, t := range tenants {
		snaps[i] = t.Snapshot()
	}
	fmt.Fprintln(w, "# HELP blitzd_tenant_requests_total Admitted requests by tenant.")
	fmt.Fprintln(w, "# TYPE blitzd_tenant_requests_total counter")
	for i, t := range tenants {
		fmt.Fprintf(w, "blitzd_tenant_requests_total{tenant=%q} %d\n", t.Name, snaps[i].Requests)
	}
	fmt.Fprintln(w, "# HELP blitzd_tenant_cache_hits_total Requests served from a cache tier, by tenant.")
	fmt.Fprintln(w, "# TYPE blitzd_tenant_cache_hits_total counter")
	for i, t := range tenants {
		fmt.Fprintf(w, "blitzd_tenant_cache_hits_total{tenant=%q} %d\n", t.Name, snaps[i].CacheHits)
	}
	fmt.Fprintln(w, "# HELP blitzd_tenant_sweeps_total Uncached sweep computations charged, by tenant.")
	fmt.Fprintln(w, "# TYPE blitzd_tenant_sweeps_total counter")
	for i, t := range tenants {
		fmt.Fprintf(w, "blitzd_tenant_sweeps_total{tenant=%q} %d\n", t.Name, snaps[i].Sweeps)
	}
	fmt.Fprintln(w, "# HELP blitzd_tenant_bytes_total Result bytes served, by tenant.")
	fmt.Fprintln(w, "# TYPE blitzd_tenant_bytes_total counter")
	for i, t := range tenants {
		fmt.Fprintf(w, "blitzd_tenant_bytes_total{tenant=%q} %d\n", t.Name, snaps[i].BytesServed)
	}
	fmt.Fprintln(w, "# HELP blitzd_tenant_rejects_total Rejected requests by tenant and reason.")
	fmt.Fprintln(w, "# TYPE blitzd_tenant_rejects_total counter")
	for i, t := range tenants {
		fmt.Fprintf(w, "blitzd_tenant_rejects_total{tenant=%q,reason=\"rate\"} %d\n", t.Name, snaps[i].RejectRate)
		fmt.Fprintf(w, "blitzd_tenant_rejects_total{tenant=%q,reason=\"quota\"} %d\n", t.Name, snaps[i].RejectQuota)
		fmt.Fprintf(w, "blitzd_tenant_rejects_total{tenant=%q,reason=\"queue\"} %d\n", t.Name, snaps[i].RejectedQueue)
	}
	fmt.Fprintln(w, "# HELP blitzd_unauthenticated_total Requests rejected with 401.")
	fmt.Fprintln(w, "# TYPE blitzd_unauthenticated_total counter")
	fmt.Fprintf(w, "blitzd_unauthenticated_total %d\n", reg.Unauthenticated())
}
