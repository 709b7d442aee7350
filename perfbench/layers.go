package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/store"
)

// layerMetrics turns an engine pass's spans and counts into per-layer
// metrics. Host times are in reference-host units (each span scaled by
// its block's factor); counts are exact.
func (p *enginePass) layerMetrics(c *clock) values {
	lt := p.tr.layerTimes(c)
	l := p.layers
	m := values{}
	us := func(name string) float64 { return mean(lt[name]) * 1e3 }
	if len(lt["blitzcoin.prepare"]) > 0 {
		m["blitzcoin.prepare_us"] = us("blitzcoin.prepare")
		m["blitzcoin.encode_us"] = us("blitzcoin.encode")
		m["blitzcoin.result_sha_us"] = us("blitzcoin.result_sha")
		m["trace_overhead_pct"] = 100 * (l.decompNs - l.execNs) / l.execNs
	}
	if l.exchangeSeen {
		m["sweep.trial_ms_p50"] = median(lt["sweep.trial"])
		m["sweep.efficiency"] = l.sweepBusyNs / l.sweepCapNs
		m["coin.setup_us"] = us("coin.setup")
		m["coin.run_ms_p50"] = median(append([]float64(nil), lt["coin.run"]...))
		m["coin.ns_per_event"] = sum(lt["coin.run"]) * 1e6 / float64(l.coinEvents)
		m["coin.events"] = float64(l.coinEvents)
		m["coin.packets"] = float64(l.coinPackets)
		m["coin.exchanges"] = float64(l.coinExch)
		m["coin.sim_cycles"] = float64(l.coinCycles)
		m["coin.retries"] = float64(l.coinRetries)
	}
	if l.socSeen {
		m["soc.setup_us"] = us("soc.setup")
		m["soc.run_ms_p50.bc"] = median(append([]float64(nil), lt["soc.run.bc"]...))
		m["soc.run_ms_p50.central"] = median(append([]float64(nil), lt["soc.run.central"]...))
		m["soc.ns_per_event"] = (sum(lt["soc.run.bc"]) + sum(lt["soc.run.central"])) * 1e6 / float64(l.socEvents)
		m["soc.events"] = float64(l.socEvents)
		m["soc.exec_cycles"] = float64(l.socExec)
		m["soc.responses"] = float64(l.socResponses)
	}
	if l.nocPackets > 0 {
		m["noc.packets"] = float64(l.nocPackets)
		m["noc.hops"] = float64(l.nocHops)
		m["noc.contention_cycles"] = float64(l.nocContend)
		m["noc.pm_share"] = float64(l.nocPM) / float64(l.nocPackets)
	}
	return m
}

// merge adds the metrics of src that dst lacks.
func merge(dst, src values) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// census fills, in a traced run, the per-layer metrics of layers the
// workload itself does not exercise, by running one small block of the
// workload that does: the SoC layers from a soc-sweep block, the exchange
// layers from an exchange-sweep block, the serving layers from a small
// serve-mix pass. Every traced run thereby prints every layer; the
// workload's own layers always come from its own pass.
func census(cfg runConfig, out *outcome) error {
	runEngineBlock := func(gen func(uint64, int) []blitzcoin.Request, callers int) error {
		c := newClock(runtime.GOMAXPROCS(0), guard{idle: idleGoroutines()})
		p := &enginePass{callers: callers, blocks: 1, gen: gen, seed: cfg.seed, tr: newTracer(), layers: &layerAcc{}}
		st := &engineStats{}
		if err := p.run(c, st); err != nil {
			return err
		}
		if st.failed > 0 {
			return fmt.Errorf("census: %s", strings.Join(st.errs, "; "))
		}
		merge(out.metrics, p.layerMetrics(c))
		return nil
	}
	if _, ok := out.metrics["soc.events"]; !ok {
		if err := runEngineBlock(socBlock, runtime.GOMAXPROCS(0)); err != nil {
			return err
		}
	}
	if _, ok := out.metrics["coin.events"]; !ok {
		if err := runEngineBlock(exchangeBlock, 1); err != nil {
			return err
		}
	}
	if _, ok := out.metrics["server.memory_hit_ratio"]; !ok {
		sc := cfg
		sc.dir = filepath.Join(cfg.dir, "census")
		small, err := runServe(sc, serveParams{fixture: 600, hot: 64, blocks: 2, perBlock: 1000})
		if err != nil {
			return err
		}
		if small.failed > 0 {
			return fmt.Errorf("census: %s", strings.Join(small.errs, "; "))
		}
		merge(out.metrics, small.metrics)
		for k, v := range small.bases {
			out.bases["census."+k] = v
		}
	}
	return nil
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg runConfig) string {
	return filepath.Join(filepath.Dir(cfg.dir), "traces", fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
}

// directLayers times the serving layers by calling them directly on
// copies of the run's state: tenant auth with the run's keys, Store.Get
// and Put, the store's warm scan, ledger replay and Append at the run's
// final size, request preparation, and result encoding and hashing.
func (s *servePass) directLayers(c *clock, results []*blitzcoin.Result, m values) error {
	timed := func(name string, n int, fn func() error) error {
		var err error
		b, berr := c.block(func() { err = fn() })
		if berr != nil {
			return berr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = c.blocks[b].wallMs * c.blocks[b].factor / float64(n)
		return nil
	}
	ms2us := 1e3

	const auths = 4000
	if err := timed("tenant.auth_us", auths, func() error {
		for i := 0; i < auths; i++ {
			t, err := s.d.reg.Authenticate(benchTenants[i%2].Key)
			if err != nil {
				return err
			}
			if _, err := t.AllowRequest(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["tenant.auth_us"] *= ms2us

	cp := filepath.Join(s.dir, "copy")
	if err := copyTree(s.state.storeDir, filepath.Join(cp, "store")); err != nil {
		return err
	}
	if err := copyTree(s.state.ledgerPath, filepath.Join(cp, "ledger.jsonl")); err != nil {
		return err
	}
	c.untimed()

	var led *ledger.Ledger
	if err := timed("ledger.open_ms", 1, func() (err error) {
		led, err = ledger.Open(filepath.Join(cp, "ledger.jsonl"), 0)
		return err
	}); err != nil {
		return err
	}
	const appends = 64
	if err := timed("ledger.append_us", appends, func() error {
		for i := 0; i < appends; i++ {
			k := fmt.Sprintf("%064x", mix(s.seed, 40, uint64(i)))
			if _, _, err := led.Append(k, blitzcoin.EngineVersion, k); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["ledger.append_us"] *= ms2us
	if err := led.Close(); err != nil {
		return err
	}

	var st *store.Store
	if err := timed("store.warm_ms", 1, func() (err error) {
		st, err = store.Open(filepath.Join(cp, "store"), blitzcoin.EngineVersion, 256<<20, quietLog)
		for err == nil && !st.Stats().Warmed {
			time.Sleep(100 * time.Microsecond)
		}
		return err
	}); err != nil {
		return err
	}
	defer st.Close()
	var all []string
	for h := range s.sums {
		all = append(all, h)
	}
	sort.Strings(all)
	var keys []string
	for i := 0; i < len(all); i += max(1, len(all)/256) {
		keys = append(keys, all[i])
	}
	if err := timed("store.get_us", len(keys), func() error {
		for _, k := range keys {
			if _, ok := st.Get(k); !ok {
				return fmt.Errorf("store copy lacks %s", k[:12])
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["store.get_us"] *= ms2us
	blob := []byte(strings.Repeat(`{"kind":"exchange"}`, 150))
	const puts = 32
	if err := timed("store.put_us", puts, func() error {
		for i := 0; i < puts; i++ {
			if err := st.Put(fmt.Sprintf("perfbench-put-%d", i), "exchange", blob); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["store.put_us"] *= ms2us

	reqs := make([]blitzcoin.Request, 0, 512)
	for i := 0; i < len(s.fix) && len(reqs) < 512; i++ {
		var r blitzcoin.Request
		if err := json.Unmarshal(s.fix[i], &r); err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	if err := timed("blitzcoin.prepare_us", len(reqs), func() error {
		for _, r := range reqs {
			n := r.Normalized()
			if err := n.Validate(); err != nil {
				return err
			}
			if _, err := n.CanonicalHash(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["blitzcoin.prepare_us"] *= ms2us

	var encoded [][]byte
	if err := timed("blitzcoin.encode_us", len(results), func() error {
		for _, r := range results {
			b, err := json.Marshal(r)
			if err != nil {
				return err
			}
			encoded = append(encoded, b)
		}
		return nil
	}); err != nil {
		return err
	}
	m["blitzcoin.encode_us"] *= ms2us
	if err := timed("blitzcoin.result_sha_us", len(encoded), func() error {
		for _, b := range encoded {
			if _, err := blitzcoin.CanonicalResultSHA(b); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["blitzcoin.result_sha_us"] *= ms2us
	return nil
}

// copyTree copies a file or a directory tree.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if err := os.MkdirAll(filepath.Dir(target), 0o755); err != nil {
			return err
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
