package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// sourceSHA hashes the tree's Go sources (and go.mod files), skipping
// dot-directories such as build output.
func sourceSHA(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// savedRun is one run read back from its saved standard output.
type savedRun struct {
	file   string
	detail detail
	result result
}

// readRun parses a saved run: the detail line and the result line (the
// last line).
func readRun(path string) (savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, err
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, err
	}
	r := savedRun{file: path}
	if len(lines) < 2 {
		return r, fmt.Errorf("%s: want a detail line and a result line", path)
	}
	var d map[string]detail
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		return r, fmt.Errorf("%s: detail line: %w", path, err)
	}
	r.detail = d["perfbench"]
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
		return r, fmt.Errorf("%s: result line: %w", path, err)
	}
	return r, nil
}

// cohortKey is a run's stamp without the seed: runs pool only when their
// keys are equal.
func cohortKey(s stamp) stamp {
	s.Seed = 0
	return s
}

// report summarizes runs of one cohort: per metric the median, quartiles
// and IQR/median, normalized and raw side by side. It refuses to pool runs
// whose stamps differ in anything but the seed.
func report(runs []savedRun, w io.Writer) error {
	if len(runs) == 0 {
		return fmt.Errorf("no runs")
	}
	key := cohortKey(runs[0].detail.Stamp)
	for _, r := range runs[1:] {
		if k := cohortKey(r.detail.Stamp); !reflect.DeepEqual(k, key) {
			a, _ := json.Marshal(key)
			b, _ := json.Marshal(k)
			return fmt.Errorf("refusing to pool %s with %s: stamps differ beyond the seed:\n  %s\n  %s", r.file, runs[0].file, a, b)
		}
	}
	names := map[string]string{}
	for _, r := range runs {
		for n, v := range r.result.Metrics {
			names[n] = v.Unit
		}
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	correct, attempted := 0, map[int]bool{}
	for _, r := range runs {
		if r.result.Correct {
			correct++
		}
		attempted[r.result.Attempted] = true
	}
	fmt.Fprintf(w, "workload %s, %d runs (%d correct), source %s, %s, nproc %d\n",
		key.Workload, len(runs), correct, key.SourceSHA, key.GoVersion, key.NumCPU)
	fmt.Fprintf(w, "%-34s %-6s %12s %12s %12s %8s | %12s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "raw median", "iqr/med")
	for _, n := range sorted {
		var xs, raws []float64
		for _, r := range runs {
			if v, ok := r.result.Metrics[n]; ok {
				xs = append(xs, v.Value)
			}
			if v, ok := r.detail.Raw[n]; ok {
				raws = append(raws, v)
			}
		}
		q1, q2, q3 := quartiles(xs)
		rawCol := fmt.Sprintf("%12s %8s", "-", "-")
		if len(raws) == len(xs) && len(raws) > 0 {
			_, r2, _ := quartiles(raws)
			rawCol = fmt.Sprintf("%12.5g %7.1f%%", r2, 100*spread(raws))
		}
		fmt.Fprintf(w, "%-34s %-6s %12.5g %12.5g %12.5g %7.1f%% | %s\n", n, names[n], q1, q2, q3, 100*spread(xs), rawCol)
	}
	var refs []float64
	for _, r := range runs {
		refs = append(refs, r.detail.RefMs["median"])
	}
	_, rm, _ := quartiles(refs)
	fmt.Fprintf(w, "reference ms (per-run medians): median %.4g, iqr/med %.1f%%\n", rm, 100*spread(refs))
	return nil
}

func reportMain(args []string, w io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench report RUN-OUTPUT...")
		return 2
	}
	var runs []savedRun
	for _, a := range args {
		r, err := readRun(a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			return 1
		}
		runs = append(runs, r)
	}
	if err := report(runs, w); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench report:", err)
		return 1
	}
	return 0
}
