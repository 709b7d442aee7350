package sim

import "testing"

// BenchmarkKernelOp is the event kernel's per-event cost: one typed op
// scheduled and executed, reported per op. Ops go out in batches of 64,
// one cycle apart, before the kernel drains them. horizon=calendar
// schedules inside the 1,024-cycle calendar (a bucket append, then a batch
// drain); horizon=spill schedules beyond it (a spill-heap push, then the
// migration into a bucket as the clock reaches the batch).
func BenchmarkKernelOp(b *testing.B) {
	for _, tc := range []struct {
		name  string
		delay Cycles
	}{
		{"horizon=calendar", 1},
		{"horizon=spill", bucketCount},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var k Kernel
			op := k.RegisterOp(func(int32, uint64) {})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.ScheduleOp(tc.delay+Cycles(i&63), op, 0, uint64(i))
				if i&63 == 63 {
					k.Drain()
				}
			}
			k.Drain()
		})
	}
}
