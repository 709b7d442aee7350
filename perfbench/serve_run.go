package main

import (
	"runtime"
	"time"
)

func runServeMix(cfg runConfig) (*outcome, error) {
	p := serveParams{fixture: 2000, hot: 128, blocks: blocksFor(cfg.seconds, serveBlockS), perBlock: 2000}
	out, err := runServe(cfg, p)
	if err != nil || !cfg.traced {
		return out, err
	}
	return out, census(cfg, out)
}

// runServe runs one serve-mix pass with nproc in-process callers driving
// blitzd's handler in a closed loop.
func runServe(cfg runConfig, p serveParams) (*outcome, error) {
	callers := runtime.GOMAXPROCS(0)
	s := &servePass{p: p, seed: cfg.seed, dir: cfg.dir, gen: newReadGen(cfg.seed, p)}
	if cfg.traced {
		s.tr = newTracer()
	}
	if err := s.buildFixture(); err != nil {
		return nil, err
	}
	if err := syncDirs(s.state.storeDir, s.dir); err != nil {
		return nil, err
	}
	c := newClock(callers, guard{idle: idleGoroutines(), busy: func() bool { return s.d != nil && s.d.srv.Inflight() > 0 }})
	setupIdx, err := s.setup(c)
	if s.d != nil {
		defer s.d.close()
	}
	if err != nil {
		return nil, err
	}
	c.guard.idle = idleGoroutines()
	setupBlocks := len(c.blocks)

	before := s.scrapeCounters()
	obj0, bytes0 := memCounters()
	if err := s.blocksRun(c, callers); err != nil {
		return nil, err
	}
	obj1, bytes1 := memCounters()
	after := s.scrapeCounters()
	var timed []int
	for b := setupBlocks; b < len(c.blocks); b++ {
		timed = append(timed, b)
	}

	ep := &enginePass{tr: s.tr, layers: &layerAcc{}}
	est := &engineStats{}
	results, simUs, err := s.postChecks(c, ep, est)
	if err != nil {
		return nil, err
	}
	s.failed += est.failed
	s.errs = append(s.errs, est.errs...)

	requests := 0
	for _, lat := range s.lat {
		requests += len(lat)
	}
	out := &outcome{
		attempted: requests, failed: s.failed, errs: s.errs, refs: c.refStats(),
		params: map[string]any{"blocks": p.blocks, "requests_per_block": p.perBlock, "fixture": p.fixture, "hot_keys": p.hot, "callers": callers},
		bases:  values{"requests": float64(requests)},
	}
	for k, v := range s.byClass {
		out.bases["class."+k] = float64(v)
	}
	sweeps := float64(s.byClass[classHot] + s.byClass[classCold] + s.byClass[classComputed] + s.byClass[classCoalesced])
	storeLookups := float64(after.storeHits - before.storeHits + after.storeMisses - before.storeMisses)
	out.bases["server.memory_hit_ratio"] = sweeps
	out.bases["store.hit_ratio"] = storeLookups
	out.bases["server.coalesce_ratio"] = float64(s.byClass[classComputed] + s.byClass[classCoalesced])

	if cfg.traced {
		m := ep.layerMetrics(c)
		lt := s.tr.layerTimes(c)
		m["server.handler_us_p50.memory"] = median(lt["server."+classHot]) * 1e3
		m["server.handler_us_p50.disk"] = median(lt["server."+classCold]) * 1e3
		m["server.handler_ms_p50.computed"] = median(lt["server."+classComputed])
		m["server.handler_ms_p50.coalesced"] = median(lt["server."+classCoalesced])
		m["server.handler_ms_p50.shard"] = median(lt["server."+classShard])
		m["server.memory_hit_ratio"] = float64(s.byClass[classHot]) / sweeps
		m["store.hit_ratio"] = float64(after.storeHits-before.storeHits) / storeLookups
		m["server.coalesce_ratio"] = float64(s.byClass[classCoalesced]) / out.bases["server.coalesce_ratio"]
		m["ledger.entries"] = float64(after.ledgerEntries)
		m["store.writes"] = float64(after.storeWrites)
		m["server.cache_evictions"] = float64(after.evictions)
		var wall float64
		for _, b := range timed {
			wall += c.blocks[b].wallMs
		}
		m["trace_overhead_pct"] = 100 * spanCostMs() * float64(requests) / wall
		if err := s.directLayers(c, results, m); err != nil {
			return nil, err
		}
		out.metrics = m
		return out, s.tr.write(traceFile(cfg))
	}

	m, r, err := hostMetrics(c, s.lat, timed, setupIdx, float64(requests), obj1-obj0, bytes1-bytes0)
	if err != nil {
		return nil, err
	}
	m["sim_response_us"] = simUs
	out.metrics, out.raw = m, r
	return out, nil
}

// spanCostMs is what recording one span costs, in ms: the tracing
// overhead of a serve-mix traced run is this times the spans recorded.
func spanCostMs() float64 {
	const n = 20000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.add("server.memory", int32(i), -1, start, 0.1)
	}
	return msSince(start) / n
}
