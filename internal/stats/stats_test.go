package stats

import (
	"math"
	"testing"
	"testing/quick"

	"blitzcoin/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if !almostEq(r.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", r.Mean())
	}
	if r.Max() != 9 {
		t.Fatalf("max = %v", r.Max())
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Max() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	r.Add(3)
	if r.Mean() != 3 || r.Max() != 3 {
		t.Fatalf("single sample: mean=%v max=%v", r.Mean(), r.Max())
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	src := rng.New(1)
	f := func(n uint8) bool {
		m := int(n%50) + 2
		xs := make([]float64, m)
		var r Running
		for i := range xs {
			xs[i] = src.NormFloat64() * 10
			r.Add(xs[i])
		}
		sum, max := 0.0, xs[0]
		for _, x := range xs {
			sum += x
			max = math.Max(max, x)
		}
		return almostEq(r.Mean(), sum/float64(m), 1e-9) && r.Max() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Median(); !almostEq(got, 50.5, 1e-9) {
		t.Fatalf("median = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.95); !almostEq(got, 95.05, 1e-9) {
		t.Fatalf("p95 = %v", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	src := rng.New(2)
	var s Sample
	for i := 0; i < 500; i++ {
		s.Add(src.Float64() * 100)
	}
	f := func(a, b uint8) bool {
		qa := float64(a) / 255
		qb := float64(b) / 255
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantilePanics(t *testing.T) {
	var s Sample
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty quantile did not panic")
			}
		}()
		s.Quantile(0.5)
	}()
	s.Add(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range q did not panic")
			}
		}()
		s.Quantile(1.5)
	}()
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Fatalf("bucket %d = %d, want 1", i, c)
		}
	}
	if !almostEq(h.BucketCenter(0), 0.5, 1e-12) {
		t.Fatalf("center(0) = %v", h.BucketCenter(0))
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(2)
	h.Add(0.5)
	// Out-of-range samples land in the edge buckets.
	for i, want := range []int{1, 0, 1, 1} {
		if h.Counts[i] != want {
			t.Fatalf("counts = %v, want [1 0 1 1]", h.Counts)
		}
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(0, 4, 4)
	if h.String() != "(empty histogram)\n" {
		t.Fatalf("empty render = %q", h.String())
	}
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	if s := h.String(); len(s) == 0 {
		t.Fatal("histogram render empty")
	}
}

func TestSampleMinMaxMean(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(-1)
	s.Add(7)
	if s.Max() != 7 || !almostEq(s.Mean(), 3, 1e-12) {
		t.Fatalf("max/mean = %v/%v", s.Max(), s.Mean())
	}
}
