package blitzcoin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var updateEngine = flag.Bool("update", false, "rewrite testdata/engine.golden")

const engineGolden = "testdata/engine.golden"

// engineCase is one pinned engine computation.
type engineCase struct {
	name string
	req  Request
}

// exchangeCase is a two-trial exchange request on a square mesh.
func exchangeCase(name string, o ExchangeOptions) engineCase {
	return engineCase{name, Request{Trials: 2, Exchange: &o}}
}

// engineCases spans every engine layer a result byte can come from: the
// exchange-sweep shapes of the repository benchmark, each fault class of the
// hardened protocol, the torus and open-mesh routing corners, every built-in
// SoC under every scheme and allocation strategy, a custom SoC on a 2-high
// torus, and the figures whose rows aggregate those runs.
func engineCases() []engineCase {
	var cs []engineCase
	shapes := []struct {
		dim     int
		mode    ExchangeMode
		init    InitDistribution
		types   int
		dynamic bool
		drop    float64
	}{
		{8, FourWay, InitHotspot, 1, false, 0},
		{8, FourWay, InitRandom, 4, false, 0},
		{8, FourWay, InitUniform, 1, false, 0},
		{16, FourWay, InitHotspot, 4, false, 0},
		{16, FourWay, InitRandom, 1, false, 0},
		{16, FourWay, InitUniform, 4, false, 0},
		{24, FourWay, InitRandom, 4, false, 0},
		{24, FourWay, InitUniform, 1, false, 0},
		{32, FourWay, InitRandom, 1, false, 0},
		{32, FourWay, InitUniform, 4, false, 0},
		{8, FourWay, InitHotspot, 1, false, 0.01},
		{8, OneWay, InitHotspot, 1, false, 0},
		{8, OneWay, InitHotspot, 1, true, 0},
	}
	for i, s := range shapes {
		o := ExchangeOptions{Dim: s.dim, Torus: true, Mode: s.mode, DynamicTiming: s.dynamic,
			RandomPairing: true, Init: s.init, AccelTypes: s.types, Seed: uint64(101 + i)}
		if s.drop > 0 {
			o.Faults = &FaultOptions{Seed: 0x5eed, DropRate: s.drop}
		}
		cs = append(cs, exchangeCase(fmt.Sprintf("exchange/%02d-d%d-%s-%s-t%d-dyn%v-drop%v",
			i, s.dim, s.mode, s.init, s.types, s.dynamic, s.drop), o))
	}

	faulted := func(seed uint64, f FaultOptions) ExchangeOptions {
		return ExchangeOptions{Dim: 8, Torus: true, Mode: FourWay, RandomPairing: true, Seed: seed, Faults: &f}
	}
	cs = append(cs,
		exchangeCase("exchange/fault-dup-delay",
			faulted(201, FaultOptions{Seed: 3, DupRate: 0.02, DelayRate: 0.05, DelayMaxCycles: 40})),
		exchangeCase("exchange/fault-kill-and-link",
			faulted(202, FaultOptions{Seed: 4,
				KillTiles: []TileFault{{Tile: 27, AtCycle: 600}},
				FailLinks: []LinkFault{{A: 9, B: 10, AtCycle: 900}, {A: 36, B: 44, AtCycle: 1200}}})),
		exchangeCase("exchange/fault-fail-slow",
			faulted(203, FaultOptions{Seed: 5, FailSlow: []SlowFault{{Tile: 0, AtCycle: 100, Factor: 4}, {Tile: 35, AtCycle: 400, Factor: 2.5}}})),
		exchangeCase("exchange/fault-stuck-counter",
			faulted(204, FaultOptions{Seed: 6, StuckCounters: []TileFault{{Tile: 18, AtCycle: 300}}})),
		exchangeCase("exchange/torus-2x2",
			ExchangeOptions{Dim: 2, Torus: true, Mode: FourWay, RandomPairing: true, Init: InitRandom, Seed: 205}),
		exchangeCase("exchange/open-5x5-1way",
			ExchangeOptions{Dim: 5, Mode: OneWay, RandomPairing: true, Init: InitUniform, Seed: 206}),
		exchangeCase("exchange/open-5x5-4way",
			ExchangeOptions{Dim: 5, Mode: FourWay, RandomPairing: true, Seed: 207}),
	)

	for _, platform := range []string{"3x3", "4x4", "6x6"} {
		for _, s := range []Scheme{BC, BCC, CRR, TS, PT, Static} {
			for _, ap := range []bool{false, true} {
				strategy := "rp"
				if ap {
					strategy = "ap"
				}
				o := SoCOptions{SoC: platform, Scheme: s, AbsoluteProportional: ap, Repeat: 1, Seed: 301}
				cs = append(cs, engineCase{fmt.Sprintf("soc/%s-%s-%s", platform, s, strategy), Request{SoC: &o}})
			}
		}
	}

	// A 5-wide, 2-high torus: every Y hop of DMA and coin traffic takes the
	// North port, the routing corner the square platforms never reach.
	custom := CustomSoCOptions{W: 5, H: 2, Torus: true, BudgetMW: 150,
		Tiles: []TileSpec{
			{Kind: "cpu"}, {Kind: "accel", Accel: "FFT"}, {Kind: "accel", Accel: "Viterbi"},
			{Kind: "accel", Accel: "GEMM"}, {Kind: "mem"},
			{Kind: "accel", Accel: "Conv2D"}, {Kind: "accel", Accel: "FFT"}, {Kind: "io"},
			{Kind: "accel", Accel: "NVDLA"}, {Kind: "accel", Accel: "Viterbi"},
		},
		Tasks:  RandomWorkload(41, 12, []string{"FFT", "Viterbi", "GEMM", "Conv2D", "NVDLA"}, 5e3, 25e3, 2),
		Repeat: 2, Seed: 302}
	for _, s := range []Scheme{BC, CRR} {
		o := custom
		o.Scheme = s
		cs = append(cs, engineCase{"custom-soc/5x2-torus-" + string(s), Request{CustomSoC: &o}})
	}

	for _, f := range []FigureOptions{
		{Name: "3", Dims: []int{4, 8}, Trials: 3},
		{Name: "7", Ns: []int{16, 64}, Trials: 4},
		{Name: "16"},
		{Name: "20"},
		{Name: "faults", Dims: []int{6}, DropRates: []float64{0, 0.02}, Trials: 2},
	} {
		f := f
		cs = append(cs, engineCase{"figure/" + f.Name, Request{Figure: &f}})
	}
	return cs
}

// engineDigest is the SHA-256 of a result's JSON with every "meta" object
// removed, so the digest pins simulation output and nothing that merely
// names the engine or the options.
func engineDigest(res *Result) (string, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	b, err = json.Marshal(stripMeta(v))
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// stripMeta deletes every "meta" key from a decoded JSON tree.
func stripMeta(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "meta")
		for k, e := range x {
			x[k] = stripMeta(e)
		}
	case []any:
		for i, e := range x {
			x[i] = stripMeta(e)
		}
	}
	return v
}

// TestEngineGolden pins the bytes of every engine result family. A speed-
// only change to the kernel, the NoC, the coin emulator or the SoC runner
// must pass it without -update; a diff here means simulated results moved.
func TestEngineGolden(t *testing.T) {
	cases := engineCases()
	lines := make([]string, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cases[i]
				res, err := Execute(context.Background(), c.req)
				if err == nil {
					var sum string
					sum, err = engineDigest(res)
					lines[i] = c.name + " " + sum
				}
				errs[i] = err
			}
		}()
	}
	for i := range cases {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updateEngine {
		if err := os.WriteFile(engineGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(engineGolden)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d cases, the test runs %d", engineGolden, len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("engine result changed:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
