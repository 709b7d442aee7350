package soc

import "testing"

// BenchmarkSoCSettle measures one UVFR actuation of the SoC runner, from
// the PM scheme's allocation (onAllocation: the regulator retarget and the
// settle event) to settleDone (the new frequency applied and recorded in
// the tile's power trace), on one accelerator of the 3x3 SoC alternating
// between two allocations. The trace is cut back every 4,096 actuations so
// memory stays bounded; its appends are still timed.
func BenchmarkSoCSettle(b *testing.B) {
	r := New(SoC3x3(120, SchemeStatic, 1))
	t := r.tiles[r.tileOrder[0]]
	s := r.rec.Series(t.series)
	mw := [2]float64{0.4 * t.curve.PMax(), 0.9 * t.curve.PMax()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.onAllocation(t.idx, mw[i&1])
		r.kernel.Drain()
		if i&4095 == 4095 {
			s.Points = s.Points[:0]
		}
	}
}
