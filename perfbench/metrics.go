package main

import "fmt"

// metricDef is one metric as BENCHMARK.json declares it. A test checks that
// these lists equal the file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are printed by an untraced run (--trace 0). Host times are in
// reference-host units (see ref.go); sim_response_us is simulated time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.2},
	{"p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"alloc_kb_per_op", "KiB", "lower", 0.1},
	{"sim_response_us", "us", "lower", 0.1},
}

// perLayer are printed by a traced run (--trace 1).
var perLayer = []metricDef{
	{Name: "blitzcoin.prepare_us", Unit: "us", Better: "lower"},
	{Name: "blitzcoin.encode_us", Unit: "us", Better: "lower"},
	{Name: "blitzcoin.result_sha_us", Unit: "us", Better: "lower"},
	{Name: "sweep.trial_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sweep.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "coin.setup_us", Unit: "us", Better: "lower"},
	{Name: "coin.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "coin.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "coin.events", Unit: "count", Better: "lower"},
	{Name: "coin.packets", Unit: "count", Better: "lower"},
	{Name: "coin.exchanges", Unit: "count", Better: "lower"},
	{Name: "coin.sim_cycles", Unit: "count", Better: "lower"},
	{Name: "coin.retries", Unit: "count", Better: "lower"},
	{Name: "soc.setup_us", Unit: "us", Better: "lower"},
	{Name: "soc.run_ms_p50.bc", Unit: "ms", Better: "lower"},
	{Name: "soc.run_ms_p50.central", Unit: "ms", Better: "lower"},
	{Name: "soc.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "soc.events", Unit: "count", Better: "lower"},
	{Name: "soc.exec_cycles", Unit: "count", Better: "lower"},
	{Name: "soc.responses", Unit: "count", Better: "higher"},
	{Name: "noc.packets", Unit: "count", Better: "lower"},
	{Name: "noc.hops", Unit: "count", Better: "lower"},
	{Name: "noc.contention_cycles", Unit: "count", Better: "lower"},
	{Name: "noc.pm_share", Unit: "ratio", Better: "lower"},
	{Name: "server.handler_us_p50.memory", Unit: "us", Better: "lower"},
	{Name: "server.handler_us_p50.disk", Unit: "us", Better: "lower"},
	{Name: "server.handler_ms_p50.computed", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_p50.coalesced", Unit: "ms", Better: "lower"},
	{Name: "server.handler_ms_p50.shard", Unit: "ms", Better: "lower"},
	{Name: "server.memory_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tenant.auth_us", Unit: "us", Better: "lower"},
	{Name: "store.get_us", Unit: "us", Better: "lower"},
	{Name: "store.put_us", Unit: "us", Better: "lower"},
	{Name: "store.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.append_us", Unit: "us", Better: "lower"},
	{Name: "ledger.open_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.entries", Unit: "count", Better: "lower"},
	{Name: "store.writes", Unit: "count", Better: "lower"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line printed before the result: the cohort stamp, the raw
// (unnormalized) values beside the normalized ones, the reference points
// and the bases of ratios. It is for people and the report command; the
// result line alone is the benchmark's output.
type detail struct {
	Stamp  stamp              `json:"stamp"`
	Raw    map[string]float64 `json:"raw,omitempty"`
	RefMs  map[string]float64 `json:"ref_ms,omitempty"`
	Bases  map[string]float64 `json:"bases,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// values holds a run's measured metrics before they are checked against
// the declared list.
type values map[string]float64

// render keeps exactly the declared metrics, with their units, and
// reports any declared metric the run did not measure.
func render(defs []metricDef, v values) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	return out, missing
}

// hostMetrics computes a run's host-time end-to-end metrics from its timed
// blocks — per-op latencies in raw ms per block, the ops that count for
// throughput, the set-up blocks — and the heap allocation deltas over the
// timed phase. It returns them in reference-host units and raw.
func hostMetrics(c *clock, lat [][]float64, timed, setup []int, ops float64, objects, bytes uint64) (norm, raw values, err error) {
	var rawLat, normLat []float64
	for i, l := range lat {
		f := c.blocks[timed[i]].factor
		for _, x := range l {
			rawLat = append(rawLat, x)
			normLat = append(normLat, x*f)
		}
	}
	rawRate, normRate := c.rate(ops, timed)
	setupRaw, setupNorm := c.seconds(setup)
	norm = values{
		"setup_s":          median(setupNorm),
		"throughput_per_s": normRate,
		"allocs_per_op":    float64(objects) / ops,
		"alloc_kb_per_op":  float64(bytes) / 1024 / ops,
	}
	raw = values{"setup_s": median(setupRaw), "throughput_per_s": rawRate}
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50_ms", 0.50}, {"p99_ms", 0.99}} {
		if norm[q.name], err = percentile(normLat, q.q); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q.name, err)
		}
		if raw[q.name], err = percentile(rawLat, q.q); err != nil {
			return nil, nil, err
		}
	}
	return norm, raw, nil
}
