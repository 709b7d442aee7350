package noc

import (
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
	"blitzcoin/internal/sim"
)

// BenchmarkNoCSend is the NoC layer's per-message cost on the exchange
// path: one coin message routed with Route on a 16x16 torus, between
// seeded random tile pairs, its landing scheduled as a typed op that
// credits it with Arrive, as the coin emulator does; reported per message.
// Messages go out in batches of 64 before the kernel drains them, so links
// and ports contend as in an exchange round.
func BenchmarkNoCSend(b *testing.B) {
	k := &sim.Kernel{}
	m := mesh.Square(16, true)
	n := New(k, m, DefaultConfig())
	// The landing op's x packs the send cycle above the hop count.
	arrive := k.RegisterOp(func(_ int32, x uint64) { n.Arrive(x>>16, int(x&0xffff)) })
	src := rng.New(1)
	pairs := make([][2]int, 1024)
	for i := range pairs {
		a := src.Intn(m.N())
		pairs[i] = [2]int{a, (a + 1 + src.Intn(m.N()-1)) % m.N()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i&(len(pairs)-1)]
		at, _, hops, _ := n.Route(PlanePM, KindCoinStatus, p[0], p[1], 1)
		k.AtOp(at, arrive, int32(p[1]), k.Now()<<16|uint64(hops))
		if i&63 == 63 {
			k.Drain()
		}
	}
	k.Drain()
}

// BenchmarkSendBurst is the DMA layer's cost: one train of flits routed
// with Route corner to corner across an idle 6x6 mesh, and its one landing
// op, as the SoC runner schedules it.
func BenchmarkSendBurst(b *testing.B) {
	b.Run("flits=256", func(b *testing.B) {
		k := &sim.Kernel{}
		n := New(k, mesh.New(6, 6, false), DefaultConfig())
		land := k.RegisterOp(func(int32, uint64) {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			first, _, _, _ := n.Route(PlaneDMA0, KindOther, 0, 35, 256)
			k.AtOp(first+255, land, 35, 0)
			k.Drain()
		}
	})
}
