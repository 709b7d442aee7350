package main

import (
	"context"
	"runtime"

	"blitzcoin"
)

// Nominal block lengths on the reference host, in seconds. A run does
// round(seconds / nominal) blocks: its work depends on the run length and
// the seed, never on how fast the host happens to be.
const (
	exchangeBlockS = 0.37
	socBlockS      = 0.30
	setupReps      = 5
	// warmSeed fixes the set-up's warm-up request, so set-up does the same
	// work whatever the run's seed.
	warmSeed = 1
)

func blocksFor(seconds int, nominal float64) int {
	return max(1, int(float64(seconds)/nominal+0.5))
}

func runExchangeSweep(cfg runConfig) (*outcome, error) {
	warm := exchangeShapes[3].request(warmSeed)
	return runEngine(cfg, exchangeBlock, warm, blocksFor(cfg.seconds, exchangeBlockS), 1, "trials")
}

func runSoCSweep(cfg runConfig) (*outcome, error) {
	warm := blitzcoin.Request{SoC: &blitzcoin.SoCOptions{SoC: "4x4", Scheme: blitzcoin.BC, Seed: warmSeed}}
	return runEngine(cfg, socBlock, warm, blocksFor(cfg.seconds, socBlockS), runtime.GOMAXPROCS(0), "runs")
}

// runEngine drives an engine workload: callers closed-loop callers send
// blocks of requests through blitzcoin.Execute; warm is the set-up's
// warm-up request.
func runEngine(cfg runConfig, gen func(uint64, int) []blitzcoin.Request, warm blitzcoin.Request, blocks, callers int, opName string) (*outcome, error) {
	par := runtime.GOMAXPROCS(0)
	if err := warmExecute(warm); err != nil {
		return nil, err
	}
	c := newClock(par, guard{idle: idleGoroutines()})

	// Set-up: generate every block's inputs and run one warm-up Execute of
	// a fixed shape, several times; the median is reported.
	var setupIdx []int
	for r := 0; r < setupReps; r++ {
		var err error
		b, berr := c.block(func() {
			for b := 0; b < blocks; b++ {
				gen(cfg.seed, b)
			}
			err = warmExecute(warm)
		})
		if berr != nil {
			return nil, berr
		}
		if err != nil {
			return nil, err
		}
		setupIdx = append(setupIdx, b)
	}
	setupBlocks := len(c.blocks)

	pass := &enginePass{callers: callers, blocks: blocks, gen: gen, seed: cfg.seed, layers: &layerAcc{}}
	if cfg.traced {
		pass.tr = newTracer()
	}
	st := &engineStats{}
	obj0, bytes0 := memCounters()
	if err := pass.run(c, st); err != nil {
		return nil, err
	}
	obj1, bytes1 := memCounters()
	checkParallelism(st)

	out := &outcome{
		attempted: st.attempted, failed: st.failed, errs: st.errs,
		params: map[string]any{"blocks": blocks, "requests_per_block": len(gen(cfg.seed, 0)), "callers": callers, "sweep_parallelism": par},
		refs:   c.refStats(),
	}
	var timed []int
	for b := setupBlocks; b < len(c.blocks); b++ {
		timed = append(timed, b)
	}
	if cfg.traced {
		out.metrics = pass.layerMetrics(c)
		out.bases = values{opName: float64(st.ops), "requests": float64(st.attempted)}
		if err := census(cfg, out); err != nil {
			return nil, err
		}
		return out, pass.tr.write(traceFile(cfg))
	}

	m, r, err := hostMetrics(c, st.lat, timed, setupIdx, float64(st.ops), obj1-obj0, bytes1-bytes0)
	if err != nil {
		return nil, err
	}
	m["sim_response_us"] = st.simSum / st.simN
	out.metrics, out.raw = m, r
	out.bases = values{opName: float64(st.ops), "requests": float64(st.attempted)}
	return out, nil
}

// warmExecute runs one request untimed so lazily initialized state is in
// place before the idle goroutine count is taken.
func warmExecute(req blitzcoin.Request) error {
	_, err := blitzcoin.Execute(context.Background(), req)
	return err
}
