package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captured reads a `go test -bench` transcript from testdata.
func captured(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(raw), "\n")
}

// TestParseCapturedOutput: parse keys benchmarks without their GOMAXPROCS
// suffix, keeps one sample per -count repetition, and reads the cohort's
// CPU model from the `cpu:` line and GOMAXPROCS from the suffix, which go
// test omits when it is 1.
func TestParseCapturedOutput(t *testing.T) {
	snap := parse(captured(t, "bench_gomaxprocs2.txt"))
	if want := (Cohort{CPU: "Intel(R) Xeon(R) Processor", GOMAXPROCS: 2}); *snap.Cohort != want {
		t.Fatalf("cohort %+v, want %+v", *snap.Cohort, want)
	}
	var names []string
	for _, b := range snap.Benchmarks {
		names = append(names, b.Name)
		if len(b.NsPerOp) != 2 || len(b.AllocsPerOp) != 2 || len(b.Iterations) != 2 {
			t.Errorf("%s: %d ns/op, %d allocs/op, %d iteration samples, want 2 each", b.Name, len(b.NsPerOp), len(b.AllocsPerOp), len(b.Iterations))
		}
	}
	if got, want := strings.Join(names, ","), "BenchmarkBusPublish/subs=0,BenchmarkBusPublish/subs=4,BenchmarkAdmissionAcquire"; got != want {
		t.Fatalf("benchmarks %s, want %s", got, want)
	}
	if b := snap.find("BenchmarkBusPublish/subs=4"); b.NsPerOp[0] != 481.7 || b.NsPerOp[1] != 473.2 || b.AllocsPerOp[0] != 0 {
		t.Errorf("BusPublish/subs=4 samples %+v", b)
	}

	one := parse(captured(t, "bench_gomaxprocs1.txt"))
	if one.Cohort.GOMAXPROCS != 1 || one.find("BenchmarkAdmissionAcquire") == nil {
		t.Fatalf("GOMAXPROCS=1 transcript: cohort %+v, benchmarks %d", *one.Cohort, len(one.Benchmarks))
	}
}

// TestParseKeepsDashNamesAtGOMAXPROCS1: with GOMAXPROCS 1 go test appends
// no suffix, so sub-benchmarks named subs-4 and subs-16 keep their names,
// two samples each, and the cohort records GOMAXPROCS 1. Reading each
// trailing -N as a suffix would merge them into one "subs" benchmark at
// GOMAXPROCS 4.
func TestParseKeepsDashNamesAtGOMAXPROCS1(t *testing.T) {
	snap := parse(captured(t, "bench_gomaxprocs1_dashnames.txt"))
	if snap.Cohort.GOMAXPROCS != 1 {
		t.Fatalf("cohort %+v, want GOMAXPROCS 1", *snap.Cohort)
	}
	var names []string
	for _, b := range snap.Benchmarks {
		names = append(names, b.Name)
		if len(b.NsPerOp) != 2 {
			t.Errorf("%s: %d ns/op samples, want 2", b.Name, len(b.NsPerOp))
		}
	}
	if got, want := strings.Join(names, ","), "BenchmarkX/subs-4,BenchmarkX/subs-16"; got != want {
		t.Fatalf("benchmarks %s, want %s", got, want)
	}
}

// TestReportComparesOnlyWithinACohort: a delta is printed only between
// consecutive snapshots of one recorded cohort; a snapshot without a
// cohort, or a change of machine, starts the comparison afresh.
func TestReportComparesOnlyWithinACohort(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(sha, transcript string, nproc int, scale float64) string {
		s := parse(captured(t, transcript))
		s.SHA = sha
		s.Cohort.NProc, s.Cohort.Go = nproc, "go1.24.0"
		for _, b := range s.Benchmarks {
			for i := range b.NsPerOp {
				b.NsPerOp[i] *= scale
			}
		}
		if sha == "old" {
			s.Cohort = nil
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_"+sha+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	paths := []string{
		snapshot("old", "bench_gomaxprocs2.txt", 2, 1),
		snapshot("a1", "bench_gomaxprocs2.txt", 2, 1),
		snapshot("a2", "bench_gomaxprocs2.txt", 2, 1.1),
		snapshot("b1", "bench_gomaxprocs2.txt", 4, 1.1), // same CPU, more cores
		snapshot("c1", "bench_gomaxprocs1.txt", 2, 1),
	}
	var out bytes.Buffer
	if err := report(&out, paths); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 {
			rows[strings.TrimSpace(cells[1])] = line
		}
	}
	for name, want := range map[string]string{
		"cohort":            "| cohort | — | A | A | B | C |",
		"AdmissionAcquire":  "| AdmissionAcquire | 54 | 54 | 60 (+10.0%) | 60 | 50 |",
		"BusPublish/subs=4": "| BusPublish/subs=4 | 473 | 473 | 521 (+10.0%) | 521 | — |",
		"BusPublish/subs=0": "| BusPublish/subs=0 | 31 | 31 | 34 (+10.0%) | 34 | — |",
	} {
		if rows[name] != want {
			t.Errorf("row %s:\n got %s\nwant %s", name, rows[name], want)
		}
	}
	for _, legend := range []string{
		"- Cohort A: Intel(R) Xeon(R) Processor, nproc 2, GOMAXPROCS 2, go1.24.0",
		"- Cohort B: Intel(R) Xeon(R) Processor, nproc 4, GOMAXPROCS 2, go1.24.0",
		"- Cohort C: Intel(R) Xeon(R) Processor, nproc 2, GOMAXPROCS 1, go1.24.0",
	} {
		if !strings.Contains(out.String(), legend+"\n") {
			t.Errorf("report lacks legend line %q:\n%s", legend, out.String())
		}
	}
}
