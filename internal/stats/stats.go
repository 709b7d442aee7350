// Package stats provides the statistical helpers used by the Monte Carlo
// experiments: running moments (Welford), percentiles, and fixed-width
// histograms like the residual-error histograms of Fig. 7.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates the mean incrementally (Welford's update) and the
// maximum. The zero value is ready to use.
type Running struct {
	n         int
	mean, max float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 || x > r.max {
		r.max = x
	}
	r.mean += (x - r.mean) / float64(r.n)
}

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// Sample collects raw observations for percentile queries. The zero value is
// ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns the observations sorted ascending. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	return s.xs
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// between order statistics. It panics on an empty sample or out-of-range q.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	xs := s.Values()
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Mean returns the sample mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Max returns the largest observation. It panics on an empty sample.
func (s *Sample) Max() float64 {
	xs := s.Values()
	return xs[len(xs)-1]
}

// Histogram is a fixed-width bucket histogram over [Lo, Hi); samples outside
// the range are clamped into the first/last bucket so that totals are
// preserved (matching the paper's worst-case-error histograms, which have a
// bounded domain).
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram returns a histogram of n buckets over [lo, hi). It panics on
// a degenerate range or bucket count.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) x %d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records x.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// BucketCenter returns the midpoint of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// String renders a compact ASCII histogram, one line per non-empty bucket.
func (h *Histogram) String() string {
	var b strings.Builder
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	if peak == 0 {
		return "(empty histogram)\n"
	}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		bar := int(math.Round(40 * float64(c) / float64(peak)))
		fmt.Fprintf(&b, "%8.3f |%-40s %d\n", h.BucketCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}
