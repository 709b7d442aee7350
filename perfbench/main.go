// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload with a fixed amount of work derived from --seed and --seconds,
// checks every output, and prints one JSON result line: end-to-end metrics
// in reference-host units with --trace 0, per-layer metrics with
// --trace 1. `perfbench report FILE...` summarizes saved runs. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
)

// runConfig is what a workload receives: the seed, the run length that
// fixes the amount of work, and whether this is the traced run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	dir      string // scratch directory for on-disk state
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           values // normalized end-to-end, or per-layer when traced
	raw               values // raw wall-clock counterparts of host times
	bases             values // bases of ratios
	params            map[string]any
	refs              map[string]float64
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"exchange-sweep": runExchangeSweep,
	"soc-sweep":      runSoCSweep,
	"serve-mix":      runServeMix,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "report" {
		os.Exit(reportMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: exchange-sweep, soc-sweep or serve-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 8, "run length; fixes the amount of work")
	trace := fs.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload exchange-sweep|soc-sweep|serve-mix, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := checkout(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	base := os.Getenv("CARGO_TARGET_DIR")
	if base == "" {
		base = ".bench_build"
	}
	cfg := runConfig{
		workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dir: filepath.Join(base, fmt.Sprintf("perfbench-%s-%d", *name, os.Getpid())),
	}
	defer os.RemoveAll(cfg.dir)
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.RemoveAll(cfg.dir)
		os.Exit(1)
	}
	if !cfg.traced {
		out.metrics["peak_rss_mb"] = peakRSSMB()
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	metrics, missing := render(defs, out.metrics)
	for _, m := range missing {
		out.errs = append(out.errs, "metric not measured: "+m)
	}
	det := detail{Stamp: newStamp(cfg, out.params), Raw: out.raw, RefMs: out.refs, Bases: out.bases, Errors: out.errs}
	res := result{Correct: out.failed == 0 && len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	if !res.Correct && res.Failed == 0 {
		res.Failed = 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]detail{"perfbench": det}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		for _, e := range out.errs {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
		}
		os.RemoveAll(cfg.dir)
		os.Exit(1)
	}
}

// checkout refuses to run outside a checkout of the module: the benchmark
// measures the program, so the program's sources must be beside it.
func checkout() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the root of a checkout (no go.mod here)")
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memCounters reads the heap's cumulative allocation counters.
func memCounters() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// stamp identifies the cohort a run belongs to: runs may be pooled only
// when everything but the seed is equal.
type stamp struct {
	Version    string         `json:"benchmark_version"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	SourceSHA  string         `json:"source_sha"`
	Workload   string         `json:"workload"`
	Seconds    int            `json:"seconds"`
	Traced     bool           `json:"traced"`
	Params     map[string]any `json:"params"`
	Reference  string         `json:"reference"`
	Seed       uint64         `json:"seed"`
}

const benchVersion = "perfbench/1"

func newStamp(cfg runConfig, params map[string]any) stamp {
	return stamp{
		Version: benchVersion, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), SourceSHA: sourceSHA("."), Workload: cfg.workload,
		Seconds: cfg.seconds, Traced: cfg.traced, Params: params, Seed: cfg.seed,
		Reference: fmt.Sprintf("engine-event-loop/%dx%d/%d-events/parallel+single/%gms-nominal", refSide, refSide, refEvents, refNominalMs),
	}
}
