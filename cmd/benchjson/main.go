// Command benchjson turns `go test -bench` output into a committed JSON
// snapshot, and gates regressions against a base snapshot taken on the same
// machine.
//
// Snapshot mode reads benchmark output on stdin and writes one JSON document
// holding every benchmark's ns/op, B/op, allocs/op, and custom metrics, one
// sample per -count repetition, stamped with the cohort of the machine
// that ran them: the CPU model from go test's `cpu:` line, the GOMAXPROCS
// suffix of the benchmark names, the machine's CPU count, and -goversion:
//
//	go test -bench=. -benchmem -count=3 . | benchjson -sha abc1234 -goversion go1.24.0 -out BENCH_abc1234.json
//
// Check mode reads fresh benchmark output on stdin and compares it sample
// by sample with a baseline snapshot taken on the same machine: sample i of
// each side is one pair, and the gate is the median over pairs of the
// current/baseline ratio of ns/op and of allocs/op. It fails (exit 1) with
// the offending benchmark and metric named when a median ratio exceeds
// 1 + -max-regress. -bench takes a comma-separated list.
// scripts/benchcheck.sh (`make benchcheck`) produces both sides by
// alternating a pinned base commit's test binary with the working tree's:
//
//	benchjson -out base.json < base.txt
//	benchjson -baseline base.json \
//	    -bench BenchmarkExchangeThroughput,BenchmarkSoCRunThroughput -max-regress 0.20 < head.txt
//
// Report mode renders the committed snapshot sequence as a markdown
// trajectory table (one row per benchmark, one column per snapshot SHA,
// each cell the best ns/op, and a row naming each snapshot's cohort). It
// prints no deltas: snapshots are taken in different sittings, and the
// host's speed drifts between sittings by more than a change moves it, so
// two commits are compared only by alternating their test binaries in one
// sitting (check mode):
//
//	benchjson -report BENCH_abc1234.json BENCH_def5678.json > BENCHMARKS.md
//
// The perf trajectory of the repository is the sequence of committed
// BENCH_<sha>.json files; `make bench`, `make benchcheck`, and
// `make bench-report` drive the three modes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's samples across -count repetitions.
type Benchmark struct {
	Name        string               `json:"name"`
	Iterations  []int64              `json:"iterations"`
	NsPerOp     []float64            `json:"ns_per_op"`
	BytesPerOp  []float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp []float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string][]float64 `json:"metrics,omitempty"`
}

// Cohort is the machine a snapshot was taken on. Timings are comparable
// only within one cohort (BENCHMARKING.md rule 3).
type Cohort struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// Snapshot is the committed JSON document. Snapshots written before
// cohorts were recorded have a nil Cohort (and a top-level "go" field,
// which is no longer read).
type Snapshot struct {
	SHA        string       `json:"sha,omitempty"`
	Cohort     *Cohort      `json:"cohort,omitempty"`
	Benchmarks []*Benchmark `json:"benchmarks"`
}

func (s *Snapshot) find(name string) *Benchmark {
	for _, b := range s.Benchmarks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// benchLine is one benchmark result line, split into fields, with its
// iteration count parsed.
type benchLine struct {
	fields []string
	iters  int64
}

// parse consumes `go test -bench` output. Benchmark lines look like:
//
//	BenchmarkName-8  	 12	 97273245 ns/op	 916.4 custom-metric	 30659648 B/op	 943511 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. The first `cpu:`
// line and the names' -GOMAXPROCS suffix (see procsSuffix) fill the
// cohort's CPU and GOMAXPROCS; other non-benchmark lines
// (goos/goarch/pkg/PASS/ok) are skipped.
func parse(lines []string) *Snapshot {
	snap := &Snapshot{Cohort: &Cohort{}}
	var rows []benchLine
	for _, line := range lines {
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && snap.Cohort.CPU == "" {
			snap.Cohort.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		rows = append(rows, benchLine{f, iters})
	}
	if len(rows) == 0 {
		return snap
	}
	// Strip the -GOMAXPROCS suffix so snapshots from different machines
	// key identically.
	suffix, procs := procsSuffix(rows)
	snap.Cohort.GOMAXPROCS = procs
	byName := map[string]*Benchmark{}
	for _, row := range rows {
		f := row.fields
		name := strings.TrimSuffix(f[0], suffix)
		b := byName[name]
		if b == nil {
			b = &Benchmark{Name: name}
			byName[name] = b
			snap.Benchmarks = append(snap.Benchmarks, b)
		}
		b.Iterations = append(b.Iterations, row.iters)
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = append(b.NsPerOp, v)
			case "B/op":
				b.BytesPerOp = append(b.BytesPerOp, v)
			case "allocs/op":
				b.AllocsPerOp = append(b.AllocsPerOp, v)
			default:
				if b.Metrics == nil {
					b.Metrics = map[string][]float64{}
				}
				b.Metrics[unit] = append(b.Metrics[unit], v)
			}
		}
	}
	return snap
}

// procsSuffix returns the -GOMAXPROCS suffix go test appended to the
// benchmark names of rows, and GOMAXPROCS. go test appends none when
// GOMAXPROCS is 1, so a trailing -N can also be part of a name
// (BenchmarkX/subs-4): it is read as the suffix only when every name ends
// in the same one. Otherwise the names stay whole and GOMAXPROCS is 1.
// Sub-benchmarks are named with `=` (subs=4) so that the one case this
// cannot tell apart, a GOMAXPROCS=1 run whose names all end in one -N,
// does not arise.
func procsSuffix(rows []benchLine) (string, int) {
	suffix, procs := "", 1
	for _, row := range rows {
		name := row.fields[0]
		i := strings.LastIndex(name, "-")
		if i <= 0 || (suffix != "" && name[i:] != suffix) {
			return "", 1
		}
		n, err := strconv.Atoi(name[i+1:])
		if err != nil {
			return "", 1
		}
		suffix, procs = name[i:], n
	}
	return suffix, procs
}

// best returns the minimum sample: the least-noisy stand-in for the true
// cost, following benchstat's use of order statistics over means.
func best(xs []float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, true
}

// median returns the middle order statistic (the mean of the two middle
// ones for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func readStdin() []string {
	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

func check(baselinePath, benches string, maxRegress float64, cur *Snapshot) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	var offending []string
	for _, bench := range strings.Split(benches, ",") {
		bench = strings.TrimSpace(bench)
		bb, cb := base.find(bench), cur.find(bench)
		if bb == nil {
			return fmt.Errorf("baseline %s has no %s", baselinePath, bench)
		}
		if cb == nil {
			return fmt.Errorf("stdin output has no %s", bench)
		}
		gate := func(metric string, baseVals, curVals []float64) error {
			if len(baseVals) != len(curVals) || len(baseVals) == 0 {
				return fmt.Errorf("%s %s: %d baseline samples against %d current; the sides must pair up",
					bench, metric, len(baseVals), len(curVals))
			}
			ratios := make([]float64, len(curVals))
			cells := make([]string, len(curVals))
			for i := range curVals {
				if baseVals[i] == 0 {
					return fmt.Errorf("%s %s: baseline sample %d is zero", bench, metric, i)
				}
				ratios[i] = curVals[i] / baseVals[i]
				cells[i] = fmt.Sprintf("%.3f", ratios[i])
			}
			ratio := median(ratios)
			status := "ok"
			if ratio > 1+maxRegress {
				status = "REGRESSION"
				offending = append(offending, fmt.Sprintf("%s %s (median ratio %.3f)", bench, metric, ratio))
			}
			fmt.Printf("benchcheck %s %s: baseline median=%.0f current median=%.0f, per-pair ratios [%s], median ratio %.3f %s\n",
				bench, metric, median(baseVals), median(curVals), strings.Join(cells, " "), ratio, status)
			return nil
		}
		if err := gate("ns/op", bb.NsPerOp, cb.NsPerOp); err != nil {
			return err
		}
		if err := gate("allocs/op", bb.AllocsPerOp, cb.AllocsPerOp); err != nil {
			return err
		}
	}
	if len(offending) > 0 {
		return fmt.Errorf("median per-pair ratio above %.2f vs %s: %s",
			1+maxRegress, baselinePath, strings.Join(offending, ", "))
	}
	return nil
}

// report renders the snapshot files (in trajectory order) as a markdown
// table: one row per benchmark, one column per snapshot, each cell the best
// ns/op. A cohort row labels each column and a legend below the table
// spells the labels out.
// Unreadable paths are skipped with a warning so a pruned snapshot does not
// break the trajectory.
func report(w io.Writer, paths []string) error {
	var snaps []*Snapshot
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: skipping %s: %v\n", path, err)
			continue
		}
		s := &Snapshot{}
		if err := json.Unmarshal(raw, s); err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if s.SHA == "" {
			s.SHA = strings.TrimSuffix(strings.TrimPrefix(path, "BENCH_"), ".json")
		}
		snaps = append(snaps, s)
	}
	if len(snaps) == 0 {
		return fmt.Errorf("no readable snapshots")
	}

	// Row order: first appearance across the trajectory.
	var names []string
	seen := map[string]bool{}
	for _, s := range snaps {
		for _, b := range s.Benchmarks {
			if !seen[b.Name] {
				seen[b.Name] = true
				names = append(names, b.Name)
			}
		}
	}

	// Cohort labels: A, B, ... in order of first appearance.
	var cohorts []Cohort
	label := func(c *Cohort) string {
		if c == nil {
			return "—"
		}
		for i, x := range cohorts {
			if x == *c {
				return string(rune('A' + i))
			}
		}
		cohorts = append(cohorts, *c)
		return string(rune('A' + len(cohorts) - 1))
	}

	fmt.Fprintln(w, "# Benchmark trajectory")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Best-of-N ns/op per committed `BENCH_<sha>.json` snapshot, with the")
	fmt.Fprintln(w, "cohort (CPU model, nproc, GOMAXPROCS, Go version) each was taken in;")
	fmt.Fprintln(w, "— marks a snapshot that recorded none. The table shows no deltas:")
	fmt.Fprintln(w, "snapshots come from different sittings, and the host's speed drifts")
	fmt.Fprintln(w, "between sittings by more than a change moves it. Compare two commits")
	fmt.Fprintln(w, "only with paired runs of their test binaries in one sitting (`make")
	fmt.Fprintln(w, "benchcheck`). Regenerate with `make bench-report` after `make bench`.")
	fmt.Fprintln(w, "See BENCHMARKING.md for the run-validity policy.")
	fmt.Fprintln(w)
	head, rule, cohortRow := "| benchmark |", "|---|", "| cohort |"
	for _, s := range snaps {
		head += " " + s.SHA + " |"
		rule += "---:|"
		cohortRow += " " + label(s.Cohort) + " |"
	}
	fmt.Fprintln(w, head)
	fmt.Fprintln(w, rule)
	fmt.Fprintln(w, cohortRow)
	for _, name := range names {
		row := "| " + strings.TrimPrefix(name, "Benchmark") + " |"
		for _, s := range snaps {
			b := s.find(name)
			if b == nil {
				row += " — |"
				continue
			}
			v, ok := best(b.NsPerOp)
			if !ok {
				row += " — |"
				continue
			}
			row += fmt.Sprintf(" %.0f |", v)
		}
		fmt.Fprintln(w, row)
	}
	if len(cohorts) > 0 {
		fmt.Fprintln(w)
		for i, c := range cohorts {
			fmt.Fprintf(w, "- Cohort %c: %s, nproc %d, GOMAXPROCS %d, %s\n", rune('A'+i), c.CPU, c.NProc, c.GOMAXPROCS, c.Go)
		}
	}
	return nil
}

func main() {
	out := flag.String("out", "", "write parsed snapshot JSON to this file")
	sha := flag.String("sha", "", "git short SHA to record in the snapshot")
	goVersion := flag.String("goversion", "", "go version to record in the snapshot")
	baseline := flag.String("baseline", "", "check mode: same-machine snapshot whose samples pair with stdin's")
	bench := flag.String("bench", "BenchmarkExchangeThroughput", "check mode: comma-separated benchmarks to gate on")
	maxRegress := flag.Float64("max-regress", 0.20, "check mode: allowed fractional regression")
	doReport := flag.Bool("report", false, "report mode: render the snapshot files given as args into a markdown trajectory table")
	flag.Parse()

	if *doReport {
		if err := report(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	snap := parse(readStdin())
	snap.SHA = *sha
	snap.Cohort.NProc = runtime.NumCPU()
	snap.Cohort.Go = *goVersion
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *baseline != "" {
		if err := check(*baseline, *bench, *maxRegress, snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}
