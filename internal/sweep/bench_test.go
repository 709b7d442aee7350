package sweep

import "testing"

// BenchmarkSweepMap measures the sweep fan-out's own cost: one Map over
// trials that do no work, at the default parallelism, per Map.
func BenchmarkSweepMap(b *testing.B) {
	b.Run("trials=64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Map(bg, 64, 0, func(trial int) int { return trial })
		}
	})
}
