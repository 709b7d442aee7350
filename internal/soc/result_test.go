package soc

import (
	"math"
	"testing"

	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
	"blitzcoin/internal/stats"
)

// TestResponseMicrosMatchesSamples checks the one-pass mean and median
// against their definition, a stats.Sample of the responses in
// microseconds each, bit for bit, on odd and even counts of random
// responses, repeated values included.
func TestResponseMicrosMatchesSamples(t *testing.T) {
	src := rng.New(28)
	if mean, median := (Result{}).ResponseMicros(); mean != 0 || median != 0 {
		t.Fatalf("no responses: (%v, %v), want zeros", mean, median)
	}
	for trial := 0; trial < 500; trial++ {
		var r Result
		for n := 1 + src.Intn(60); n > 0; n-- {
			r.Responses = append(r.Responses, sim.Cycles(1+src.Intn(1+src.Intn(5000))))
		}
		var mean, median stats.Sample
		for _, c := range r.Responses {
			mean.Add(sim.CyclesToMicros(c))
			median.Add(sim.CyclesToMicros(c))
		}
		gotMean, gotMedian := r.ResponseMicros()
		if math.Float64bits(gotMean) != math.Float64bits(mean.Mean()) ||
			math.Float64bits(gotMedian) != math.Float64bits(median.Median()) {
			t.Fatalf("trial %d (%d responses): (%v, %v), want (%v, %v)",
				trial, len(r.Responses), gotMean, gotMedian, mean.Mean(), median.Median())
		}
		if m := r.MeanResponseMicros(); math.Float64bits(m) != math.Float64bits(mean.Mean()) {
			t.Fatalf("trial %d: MeanResponseMicros %v, want %v", trial, m, mean.Mean())
		}
	}
}
