package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"blitzcoin"
)

// run invokes `blitzctl run args...` in-process.
func run(t *testing.T, ctx context.Context, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = runFigures(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunPrintsExecuteLines: `blitzctl run -fig F` prints "# <Title>" and
// exactly the lines Execute serves for the same FigureOptions.
func TestRunPrintsExecuteLines(t *testing.T) {
	for _, name := range []string{"13", "nopm", "1", "3"} {
		code, stdout, stderr := run(t, context.Background(), "-fig", name, "-trials", "2")
		if code != 0 {
			t.Fatalf("run -fig %s: exit %d, stderr %q", name, code, stderr)
		}
		res, err := blitzcoin.Execute(context.Background(), blitzcoin.Request{
			Figure: &blitzcoin.FigureOptions{Name: name, Seed: 1, Trials: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := "# " + res.Figure.Title + "\n" + strings.Join(res.Figure.Lines, "\n") + "\n"
		if stdout != want {
			t.Fatalf("run -fig %s stdout:\n%s\nwant:\n%s", name, stdout, want)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	code, stdout, stderr := run(t, context.Background(), "-fig", "99")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
	if !strings.Contains(stderr, strings.Join(blitzcoin.FigureNames(), ", ")) {
		t.Fatalf("stderr does not list the figures: %q", stderr)
	}
}

// TestRunInterrupted: a cancelled run still prints the figure with the
// rows finished so far, then the partial-results warning, and exits 130;
// Fig. 7 covers the figures that run as a merge of trial units.
func TestRunInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fig := range []string{"3", "7"} {
		code, stdout, _ := run(t, ctx, "-fig", fig, "-trials", "2")
		if code != 130 {
			t.Fatalf("-fig %s: exit %d, want 130", fig, code)
		}
		title, _ := blitzcoin.FigureTitle(fig)
		head, tail := "# "+title+"\n", "\n\nblitzctl: interrupted — partial results above (undispatched trials omitted)\n"
		if !strings.HasPrefix(stdout, head) || !strings.HasSuffix(stdout, tail) || len(stdout) <= len(head)+len(tail) {
			t.Fatalf("-fig %s stdout:\n%s", fig, stdout)
		}
	}
}

// TestRunCSV: -csv writes each figure's files, and every file parses as
// CSV under its header.
func TestRunCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	headers := map[string]string{
		"fig13_power_curves.csv":   "accel,V,F_MHz,P_mW",
		"nopm_overhead.csv":        "accel,nopm_exec_us,bc_exec_us,overhead_pct",
		"fig01_scalability.csv":    "scheme,N,response_us,tw_ms,interval_us,supported",
		"fig03_exchange_modes.csv": "mode,d,N,cycles_mean,cycles_p95,packets_mean",
	}
	for _, name := range []string{"13", "nopm", "1", "3"} {
		if code, _, stderr := run(t, context.Background(), "-fig", name, "-trials", "2", "-csv", dir); code != 0 {
			t.Fatalf("run -fig %s -csv: exit %d, stderr %q", name, code, stderr)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for name := range headers {
		want = append(want, name)
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("files %v, want %v", got, want)
	}
	for name, header := range headers {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(recs) < 2 || strings.Join(recs[0], ",") != header {
			t.Fatalf("%s: %d records, header %v, want %s", name, len(recs), recs[0], header)
		}
	}
}

// TestRunCSVFailures: a CSV file that cannot be created or written exits 1
// and names the file.
func TestRunCSVFailures(t *testing.T) {
	const file = "fig13_power_curves.csv"
	cases := map[string]func(dir string) error{
		// A directory in the file's place fails the create.
		"create": func(dir string) error { return os.Mkdir(filepath.Join(dir, file), 0o755) },
		// /dev/full accepts the open and fails every write.
		"write": func(dir string) error {
			if _, err := os.Stat("/dev/full"); err != nil {
				t.Skip("no /dev/full")
			}
			return os.Symlink("/dev/full", filepath.Join(dir, file))
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := setup(dir); err != nil {
				t.Fatal(err)
			}
			code, _, stderr := run(t, context.Background(), "-fig", "13", "-csv", dir)
			if code != 1 || !strings.Contains(stderr, file) {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
		})
	}
}
