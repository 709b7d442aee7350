package coin

import (
	"testing"

	"blitzcoin/internal/mesh"
	"blitzcoin/internal/rng"
)

// roundTile is the tile that starts every exchange of the round benchmark.
const roundTile = 5

// warmRound returns one exchange round on a 4x4 torus emulator: roundTile
// starts an exchange, 1-way with its next round-robin neighbor or 4-way
// with all four, and the kernel runs until the exchange's last update has
// landed. The emulator is loaded without Init, so no tick chain exists and
// the queue drains exactly then. The round has already run 64 times, so
// the kernel's arena and the message storage are grown.
func warmRound(mode Mode) func() {
	e := NewEmulator(Config{Mesh: mesh.Square(4, true), Mode: mode, RefreshInterval: 32}, rng.New(1))
	a := RandomAssignment(rng.New(2), UniformMaxes(e.n, 32), int64(e.n)*16)
	copy(e.has, a.Has)
	copy(e.max, a.Max)
	e.recomputeError()
	round := func() {
		if mode == FourWay {
			e.startFourWay(roundTile)
		} else {
			e.startOneWay(roundTile, e.nextRRPartner(roundTile))
		}
		e.kernel.Drain()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	return round
}

// BenchmarkExchangeRound measures one coin exchange, initiation to last
// update, on a warm emulator: the per-exchange cost of the coin layer and
// the NoC routing under it, without the tick chains that schedule it.
func BenchmarkExchangeRound(b *testing.B) {
	for _, c := range []struct {
		name string
		mode Mode
	}{{"mode=1way", OneWay}, {"mode=4way", FourWay}} {
		b.Run(c.name, func(b *testing.B) {
			round := warmRound(c.mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}
