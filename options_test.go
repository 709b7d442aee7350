package blitzcoin

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// roundTrip marshals v, unmarshals into a fresh value of the same type,
// re-marshals, and requires byte-identical JSON — the serialization
// contract behind the blitzd cache.
func roundTrip(t *testing.T, v any) {
	t.Helper()
	b1, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	fresh := reflect.New(reflect.TypeOf(v))
	if err := json.Unmarshal(b1, fresh.Interface()); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	b2, err := json.Marshal(fresh.Elem().Interface())
	if err != nil {
		t.Fatalf("re-marshal %T: %v", v, err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("%T round trip drifted:\n  %s\nvs\n  %s", v, b1, b2)
	}
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	faults := &FaultOptions{
		Seed: 3, DropRate: 0.01, DupRate: 0.002, DelayRate: 0.05, DelayMaxCycles: 128,
		KillTiles:     []TileFault{{Tile: 7, AtCycle: 1000}},
		StuckCounters: []TileFault{{Tile: 2, AtCycle: 500}},
		FailSlow:      []SlowFault{{Tile: 1, AtCycle: 200, Factor: 4}},
		FailLinks:     []LinkFault{{A: 0, B: 1, AtCycle: 300}},
	}
	for _, v := range []any{
		ExchangeOptions{Torus: true, RandomPairing: true}.Normalized(),
		ExchangeOptions{Dim: 10, Torus: true, Mode: FourWay, DynamicTiming: true,
			RandomPairing: true, Threshold: 1.0, Init: InitUniform, AccelTypes: 4,
			TargetPerTile: 16, CoinsPerTile: 8, ThermalCap: 40, Faults: faults, Seed: 9},
		SoCOptions{}.Normalized(),
		SoCOptions{SoC: "4x4", Scheme: CRR, BudgetMW: 300, Workload: CVDependent,
			Repeat: 2, AbsoluteProportional: true, Faults: faults, Seed: 5},
		CustomSoCOptions{Name: "x", W: 2, H: 2, Tiles: []TileSpec{{Kind: "cpu"}, {Kind: "accel", Accel: "FFT"}, {Kind: "mem"}, {Kind: "io"}},
			BudgetMW: 50, Scheme: BC, Tasks: []TaskSpec{{Name: "t", Accel: "FFT", WorkCycles: 1e4}}, Seed: 2},
		*faults,
		FigureOptions{Name: "7", Trials: 10, Seed: 2, Ns: []int{100}},
		Request{Kind: KindExchange, Trials: 3, Exchange: &ExchangeOptions{Seed: 1}},
		ScalingModel{Name: "BC", Law: "O(sqrt(N))", TauMicros: 0.2},
	} {
		roundTrip(t, v)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	ex := SimulateExchange(ExchangeOptions{Dim: 4, Torus: true, RandomPairing: true, Seed: 1})
	roundTrip(t, ex)

	sr := RunSoC(SoCOptions{Repeat: 1, Seed: 1})
	roundTrip(t, sr)

	res, err := Execute(context.Background(), Request{Trials: 2, Exchange: &ExchangeOptions{Dim: 4, Torus: true, RandomPairing: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, *res)
	roundTrip(t, *res.Exchange)

	fig, err := RunFigure(context.Background(), FigureOptions{Name: "13"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, fig)
}

func TestResultMetaSelfDescribing(t *testing.T) {
	o := ExchangeOptions{Dim: 4, Torus: true, RandomPairing: true, Seed: 42}
	r := SimulateExchange(o)
	if r.Meta.EngineVersion != EngineVersion || r.Meta.APIVersion != APIVersion {
		t.Fatalf("meta versions: %+v", r.Meta)
	}
	if r.Meta.Seed != 42 {
		t.Fatalf("meta seed = %d", r.Meta.Seed)
	}
	if r.Meta.OptionsHash == "" {
		t.Fatal("meta options hash empty")
	}
	// Spelled-out defaults hash identically to elided ones.
	spelled := o.Normalized()
	if r2 := SimulateExchange(spelled); r2.Meta.OptionsHash != r.Meta.OptionsHash {
		t.Fatalf("normalization changed the hash: %s vs %s", r.Meta.OptionsHash, r2.Meta.OptionsHash)
	}
	// Different options hash differently.
	o.Dim = 6
	if r3 := SimulateExchange(o); r3.Meta.OptionsHash == r.Meta.OptionsHash {
		t.Fatal("distinct options share a hash")
	}

	s := RunSoC(SoCOptions{Repeat: 1, Seed: 7})
	if s.Meta.Seed != 7 || s.Meta.OptionsHash == "" || s.Meta.EngineVersion != EngineVersion {
		t.Fatalf("soc meta: %+v", s.Meta)
	}
}

func TestRequestNormalizeAndValidate(t *testing.T) {
	r := Request{Exchange: &ExchangeOptions{Seed: 1}}
	n := r.Normalized()
	if n.Kind != KindExchange || n.Version != APIVersion || n.Trials != 1 {
		t.Fatalf("normalized: %+v", n)
	}
	if n.Exchange.Dim != 8 || n.Exchange.Threshold != 1.5 || n.Exchange.CoinsPerTile != 16 {
		t.Fatalf("payload defaults not applied: %+v", n.Exchange)
	}
	// Idempotent.
	if !reflect.DeepEqual(n.Normalized(), n) {
		t.Fatal("Normalized not idempotent")
	}
	// The original request is untouched.
	if r.Exchange.Dim != 0 || r.Kind != "" {
		t.Fatalf("Normalized mutated its receiver: %+v", r)
	}

	for name, bad := range map[string]Request{
		"empty":        {},
		"two payloads": {Exchange: &ExchangeOptions{}, SoC: &SoCOptions{}},
		"kind mismatch": {Kind: KindSoC,
			Exchange: &ExchangeOptions{}},
		"bad version":  {Version: "v9", Exchange: &ExchangeOptions{}},
		"bad payload":  {Exchange: &ExchangeOptions{Dim: 1}},
		"bad figure":   {Figure: &FigureOptions{Name: "99"}},
		"bad soc":      {SoC: &SoCOptions{SoC: "9x9"}},
		"bad workload": {SoC: &SoCOptions{Workload: "crypto-mining"}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: no validation error", name)
		}
	}
	if err := (Request{Kind: KindExchange, Exchange: &ExchangeOptions{}}).Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

func TestCanonicalHashNormalizationInvariant(t *testing.T) {
	bare := Request{Exchange: &ExchangeOptions{Seed: 1}}
	spelled := bare.Normalized()
	h1, err := bare.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := spelled.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("defaults changed the hash: %s vs %s", h1, h2)
	}
	other := Request{Exchange: &ExchangeOptions{Seed: 2}}
	h3, err := other.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("different seeds share a hash")
	}
	if _, err := (Request{}).CanonicalHash(); err == nil {
		t.Fatal("invalid request hashed")
	}
}

func TestExecuteExchangeSweep(t *testing.T) {
	req := Request{Trials: 3, Exchange: &ExchangeOptions{Dim: 4, Torus: true, RandomPairing: true, Seed: 1}}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindExchange || res.Exchange == nil {
		t.Fatalf("wrong result shape: %+v", res)
	}
	sw := res.Exchange
	if sw.Trials != 3 || len(sw.Rows) != 3 {
		t.Fatalf("trials: %d rows: %d", sw.Trials, len(sw.Rows))
	}
	if sw.Converged == 0 || sw.MeanConvergenceMicros <= 0 {
		t.Fatalf("sweep did not converge: %+v", sw)
	}
	// Trial seeds are derived, so rows differ but are each reproducible.
	if sw.Rows[0].Meta.Seed == sw.Rows[1].Meta.Seed {
		t.Fatal("trial seeds not derived")
	}
	direct := SimulateExchange(ExchangeOptions{Dim: 4, Torus: true, RandomPairing: true, Seed: 1 + 7919})
	if direct != sw.Rows[1] {
		t.Fatal("sweep row differs from direct simulation")
	}
}

func TestExecuteValidatesAndRecovers(t *testing.T) {
	ctx := context.Background()
	if _, err := Execute(ctx, Request{}); err == nil {
		t.Fatal("empty request executed")
	}
	if _, err := Execute(ctx, Request{SoC: &SoCOptions{SoC: "9x9"}}); err == nil {
		t.Fatal("bad platform executed")
	}
	// A validation-clean request whose workload needs accelerators the
	// platform lacks panics internally; Execute must surface an error.
	_, err := Execute(ctx, Request{SoC: &SoCOptions{SoC: "3x3", Workload: CVParallel, Repeat: 1}})
	if err == nil || !strings.Contains(err.Error(), "blitzcoin") {
		t.Fatalf("panic not converted: %v", err)
	}
}

func TestExecuteSoCAndFigure(t *testing.T) {
	ctx := context.Background()
	res, err := Execute(ctx, Request{SoC: &SoCOptions{Repeat: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindSoC || res.SoC == nil || !res.SoC.Completed {
		t.Fatalf("soc result: %+v", res)
	}
	if res.SoC.Meta.OptionsHash == "" {
		t.Fatal("soc result missing request hash")
	}

	fig, err := Execute(ctx, Request{Figure: &FigureOptions{Name: "13"}})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Kind != KindFigure || fig.Figure == nil || len(fig.Figure.Lines) == 0 {
		t.Fatalf("figure result: %+v", fig)
	}
}

func TestExecuteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Execute(ctx, Request{Trials: 4, Exchange: &ExchangeOptions{Dim: 4, Seed: 1}}); err == nil {
		t.Fatal("cancelled execute returned a result")
	}
}

func TestExecuteCustomSoC(t *testing.T) {
	req := Request{CustomSoC: &CustomSoCOptions{
		W: 2, H: 2,
		Tiles:    []TileSpec{{Kind: "cpu"}, {Kind: "accel", Accel: "FFT"}, {Kind: "accel", Accel: "FFT"}, {Kind: "mem"}},
		BudgetMW: 60,
		Tasks:    []TaskSpec{{Accel: "FFT", WorkCycles: 2e4}},
		Seed:     1,
	}}
	res, err := Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindCustomSoC || res.SoC == nil || !res.SoC.Completed {
		t.Fatalf("custom result: %+v", res)
	}
}

func TestFigureRegistryValidation(t *testing.T) {
	if len(FigureNames()) < 15 {
		t.Fatalf("registry too small: %v", FigureNames())
	}
	if title, ok := FigureTitle("7"); !ok || title == "" {
		t.Fatal("figure 7 missing")
	}
	if err := (FigureOptions{Name: "nope"}).Validate(); err == nil {
		t.Fatal("unknown figure validated")
	}
	if err := (FigureOptions{Name: "3", Dims: []int{1}}).Validate(); err == nil {
		t.Fatal("tiny dim validated")
	}
	if err := (FigureOptions{Name: "faults", DropRates: []float64{2}}).Validate(); err == nil {
		t.Fatal("drop rate 2 validated")
	}
	if err := (FigureOptions{Name: "21", TwsMs: []float64{0}}).Validate(); err == nil {
		t.Fatal("Fig. 21 at Tw = 0 validated")
	}
	if err := (FigureOptions{Name: "1", Ns: []int{5}, TwsMs: []float64{0}}).Validate(); err == nil {
		t.Fatal("Fig. 1 at Tw = 0 validated")
	}
}

func TestRunFigureMatchesExperimentRows(t *testing.T) {
	fig, err := RunFigure(context.Background(), FigureOptions{Name: "3", Dims: []int{4}, Trials: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Lines) != 2 { // 1-way and 4-way rows for the single dim
		t.Fatalf("lines: %q", fig.Lines)
	}
	again, err := RunFigure(context.Background(), FigureOptions{Name: "3", Dims: []int{4}, Trials: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig.Lines, again.Lines) {
		t.Fatal("figure lines not deterministic")
	}
}
