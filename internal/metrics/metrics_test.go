package metrics

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// render runs fn against a fresh Writer and returns what it wrote.
func render(t *testing.T, fn func(w *Writer)) string {
	t.Helper()
	var b bytes.Buffer
	w := NewWriter(&b)
	fn(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestHistogramLeSemantics(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	got := render(t, func(w *Writer) { w.Histogram("h", h) })
	// A value equal to a bound lands in that bound's bucket; counts are
	// cumulative; +Inf equals the count.
	want := `h_bucket{le="1"} 2
h_bucket{le="2"} 4
h_bucket{le="4"} 5
h_bucket{le="+Inf"} 7
h_sum 113.5
h_count 7
`
	if got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
	if n := h.Count(); n != 7 {
		t.Errorf("Count = %d, want 7", n)
	}
}

func TestHistogramLabelsPrecedeLe(t *testing.T) {
	h := NewHistogram(0.0001, 0.5)
	h.Observe(0.25)
	got := render(t, func(w *Writer) { w.Histogram("d", h, "endpoint", "sweep") })
	want := `d_bucket{endpoint="sweep",le="0.0001"} 0
d_bucket{endpoint="sweep",le="0.5"} 1
d_bucket{endpoint="sweep",le="+Inf"} 1
d_sum{endpoint="sweep"} 0.25
d_count{endpoint="sweep"} 1
`
	if got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

// TestHistogramConcurrentObserve gives exact totals from 8 goroutines;
// run it under -race -count=10.
func TestHistogramConcurrentObserve(t *testing.T) {
	const goroutines, per = 8, 5000
	h := NewHistogram(1, 2, 3)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g%4) + 0.5) // one bucket each, +Inf included
			}
		}(g)
	}
	wg.Wait()
	counts, total := h.load(nil)
	if total != goroutines*per {
		t.Fatalf("count = %d, want %d", total, goroutines*per)
	}
	for i, n := range counts {
		if want := uint64(goroutines / 4 * per); n != want {
			t.Errorf("bucket %d = %d, want %d", i, n, want)
		}
	}
	// Halves add exactly, so any sum update the CAS loop lost would show.
	if sum, want := render(t, func(w *Writer) { w.Histogram("h", h) }), "h_sum 80000\n"; !strings.Contains(sum, want) {
		t.Errorf("sum line missing %q in\n%s", want, sum)
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.005) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}

// BenchmarkObserve measures one Observe with every core recording into
// the same histogram, the contended case of concurrent requests.
func BenchmarkObserve(b *testing.B) {
	h := NewHistogram(0.0001, 0.0005, 0.001, 0.005, 0.02, 0.1, 0.5, 2.5, 10, 60)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.00005)
		}
	})
}

func TestQuantile(t *testing.T) {
	h := NewHistogram(1, 2, 4)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty histogram: Quantile(0.5) = %v, want 0", q)
	}
	// Four values inside (2, 4]: rank 2 of 4 sits halfway through the
	// bucket, so the estimate is halfway between its bounds.
	for i := 0; i < 4; i++ {
		h.Observe(3)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("Quantile(0.5) = %v, want 3", q)
	}
	if q := h.Quantile(0.25); q != 2.5 {
		t.Errorf("Quantile(0.25) = %v, want 2.5", q)
	}
	// The first bucket interpolates from 0.
	low := NewHistogram(1, 2)
	low.Observe(0.5)
	low.Observe(0.5)
	if q := low.Quantile(0.5); q != 0.5 {
		t.Errorf("first bucket: Quantile(0.5) = %v, want 0.5", q)
	}
	// Past the last bound the estimate is the largest finite bound.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	if q := h.Quantile(0.99); q != 4 {
		t.Errorf("+Inf bucket: Quantile(0.99) = %v, want 4", q)
	}
}

func TestLabelEscaping(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`plain`, `plain`},
		{`say "hi"`, `say \"hi\"`},
		{`C:\dir`, `C:\\dir`},
		{"two\nlines", `two\nlines`},
		{"tab\there", "tab\there"},         // raw: the format defines no \t
		{"line\u2028sep", "line\u2028sep"}, // raw, unlike Go's %q
		{"naïve ünïcödé", "naïve ünïcödé"}, // raw UTF-8
		{"ctrl\x01byte", "ctrl\x01byte"},   // raw: the format defines no \x
		{`\"` + "\n", `\\\"\n`},            // every escape at once
	} {
		got := render(t, func(w *Writer) { w.Uint("m", 1, "l", c.in) })
		if want := `m{l="` + c.want + `"} 1` + "\n"; got != want {
			t.Errorf("label %q: got %q, want %q", c.in, got, want)
		}
	}
}

func TestFamilyHeader(t *testing.T) {
	got := render(t, func(w *Writer) {
		w.Family("x_total", "counter", `Quotes " stay, \ and newlines`+"\n"+`escape.`)
	})
	want := "# HELP x_total Quotes \" stay, \\\\ and newlines\\nescape.\n# TYPE x_total counter\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestIntegersPrintAsDigits: integer samples never switch to exponent
// form, which scrapers parsing with strconv.ParseInt (and smokes grepping
// '^name N$') depend on; floats use %g.
func TestIntegersPrintAsDigits(t *testing.T) {
	got := render(t, func(w *Writer) {
		w.Counter("c_total", "A counter.", 12_345_678_901)
		w.Gauge("g", "A gauge.", -1_000_000)
		w.Uint("u", 1_000_000, "k", "v")
		w.Float("f", 1_000_000)
		w.Float("small", 0.00001)
	})
	for _, want := range []string{
		"\nc_total 12345678901\n",
		"\ng -1000000\n",
		"\nu{k=\"v\"} 1000000\n",
		"\nf 1e+06\n",
		"\nsmall 1e-05\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in\n%s", want, got)
		}
	}
}

type failingWriter struct{ writes int }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errors.New("client gone")
}

func TestWriterStickyError(t *testing.T) {
	fw := &failingWriter{}
	w := NewWriter(fw)
	for i := 0; i < 10; i++ {
		w.Uint("m", uint64(i), "i", "x")
	}
	if err := w.Err(); err == nil {
		t.Fatal("Err returned nil after a failed write")
	}
	if fw.writes != 1 {
		t.Errorf("%d writes after the first failure, want none", fw.writes-1)
	}
}
