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

	// Options a figure does not read leave its hash.
	for _, o := range []FigureOptions{
		{Name: "13", Trials: 5, Dims: []int{4}},
		{Name: "1", Seed: 7},
		{Name: "uvfr-droop", Seed: 3, BudgetMW: 5},
		{Name: "nopm", Trials: 9},
		{Name: "17", Dims: []int{4}, Ns: []int{5}},
	} {
		o := o
		if h, err := (Request{Figure: &o}).CanonicalHash(); err != nil || h != plainFigureHashes[o.Name] {
			t.Errorf("%+v hashes to %s (%v), want the plain request's %s", o, h, err, plainFigureHashes[o.Name])
		}
	}
}

// plainFigureHashes pins the canonical hash of every registry figure's
// plain request, {"figure":{"name":N}}.
var plainFigureHashes = map[string]string{
	"1":           "2a7581a745a3a30ff268445f94a637944d1d22ed70053eda7e1a3c5e85e5f772",
	"13":          "eaa570554468b01738cde14425571f46de2eb230a678e41173b1ca85e792299d",
	"16":          "9a603f163f9656cbd58add3f6d41358f780fed6db0aaffe7828e572105693b56",
	"17":          "690dede8c867028a8109640a8513c20855d1290d7403399079d3ffc359c3d8a5",
	"18":          "95e9d69eefa3d19566395d6d7b3fa5bffa256dc28a7aaf7b073546bb4e98ce4c",
	"19":          "03d275c59484dded2de8bb03e653217192a8c9dc1ec0d68d05832a84db0ea7a2",
	"20":          "85091fc99b614c559ea4506ef657f470c158436fca32b8bdbecad0999fa59692",
	"21":          "b2e82e4cb32ac76ed3c868ece52b2ffcc7b1092d0eac0d344a93d6f176bf5319",
	"3":           "d18fa726a7669acbea4e4e9671702dd94ff5303b170da063e205a7d5a3eca73d",
	"4":           "f911a0b98e7be65a288e0745053c938d2eefc621271fc21f8c4348f28dc045cb",
	"6":           "235a4e81566d10a4a00f2ae7291a9c1e318d54fa52a55fbf6824a7435d1f3326",
	"7":           "154bd647fc3ab015935ff08611beec0ea9c68659972f1635ace531954a042241",
	"8":           "5a104b0fd06f1dbea587ec00e5f0361370743e18f0d69c1e2813a5631b25e7eb",
	"ap-rp":       "c065b663150435a063655bd7ddad84ef500b016cf0571e3a6093bcbe2000dcfc",
	"contention":  "9a037c457eec63abd7741c5b831816fecd1f23cabea4e8046c32a045a2e7d078",
	"cpu-proxy":   "e144a6e6d6c439e55992c7bd1cbd4cb8e6f6c4e2b05821408ae34eac10709c41",
	"degraded":    "88c8ca2d76cb13dc18cd3c2cfa35f26319aad75002788cc31872735d27f1557b",
	"faults":      "0bcc5818bcf5ae950e2cd87a796ab5e6ae4059e679b6639b662e9eb3202db895",
	"nopm":        "6964a8c77ea75d1c7a1443be59d26d917ea27692c1ee4e02fa8b25bd876ec4f5",
	"table1":      "eeb735f5ffd96926b853ed97ef2f39154ce79a47dfda4bd60ae9e118b7068ae4",
	"thermal-cap": "b7b0a32028b357379ad57b0870ba9c6967a2b4eccda3210b17b99269b4139f15",
	"uvfr-droop":  "19d20a7ae134ca5b04d921da8ab6b8a0839a03cc64df8d3d2f7d72ab05a34f0f",
}

// figureFieldValues gives every FigureOptions field but Name a valid value
// that differs from its value in every smallFigures request, and an
// out-of-range one (nil for Seed, where every value is valid).
var figureFieldValues = map[string]struct{ valid, invalid any }{
	"Trials":     {1, -1},
	"Seed":       {uint64(2), nil},
	"Dims":       {[]int{4}, []int{1}},
	"Ns":         {[]int{16}, []int{0}},
	"AccelTypes": {[]int{1}, []int{0}},
	"BudgetMW":   {150.0, -1.0},
	"BudgetsMW":  {[]float64{60}, []float64{0}},
	"DropRates":  {[]float64{0.05}, []float64{2}},
	"BgRates":    {[]int{0}, []int{-1}},
	"Dim":        {4, 1},
	"TwsMs":      {[]float64{2}, []float64{0}},
}

// TestFigureDescriptorsExact checks that each registry descriptor names
// exactly the fields its figure reads, on the small requests of
// TestEngineGolden. A field the descriptor leaves unset, at a valid or an
// out-of-range value, leaves the request's canonical hash, and the runner,
// handed the valid value past normalization, prints the same lines; a
// field it sets rejects the out-of-range value, and the valid one changes
// the lines. Every plain request keeps its pinned hash.
func TestFigureDescriptorsExact(t *testing.T) {
	fields := reflect.VisibleFields(reflect.TypeOf(FigureOptions{}))
	for _, f := range fields[1:] {
		if _, ok := figureFieldValues[f.Name]; !ok {
			t.Fatalf("no test values for FigureOptions.%s", f.Name)
		}
	}
	for _, base := range smallFigures() {
		base := base
		t.Run(base.Name, func(t *testing.T) {
			t.Parallel()
			hash := func(o FigureOptions) string {
				t.Helper()
				h, err := Request{Figure: &o}.CanonicalHash()
				if err != nil {
					t.Fatalf("%+v: %v", o, err)
				}
				return h
			}
			lines := func(o FigureOptions) []string {
				t.Helper()
				fig, err := RunFigure(context.Background(), o, nil)
				if err != nil {
					t.Fatalf("%+v: %v", o, err)
				}
				return fig.Lines
			}
			if h := hash(FigureOptions{Name: base.Name}); h != plainFigureHashes[base.Name] {
				t.Errorf("plain request hashes to %s, want %s", h, plainFigureHashes[base.Name])
			}
			spec := figureRegistry[base.Name]
			descriptor := reflect.ValueOf(spec.defaults)
			baseHash, baseLines := hash(base), lines(base)
			// ignored is the normalized request with every field the
			// descriptor leaves out set, for one run past normalization.
			ignored, ignoredNames := base.Normalized(), []string(nil)
			for _, f := range fields[1:] {
				vals := figureFieldValues[f.Name]
				set := func(o FigureOptions, v any) FigureOptions {
					reflect.ValueOf(&o).Elem().FieldByIndex(f.Index).Set(reflect.ValueOf(v))
					return o
				}
				with := func(v any) FigureOptions { return set(base, v) }
				if descriptor.FieldByIndex(f.Index).IsZero() {
					for _, v := range []any{vals.valid, vals.invalid} {
						if v != nil && hash(with(v)) != baseHash {
							t.Errorf("%s=%v is not read but changes the hash", f.Name, v)
						}
					}
					ignored = set(ignored, vals.valid)
					ignoredNames = append(ignoredNames, f.Name)
					continue
				}
				if vals.invalid != nil && with(vals.invalid).Validate() == nil {
					t.Errorf("%s=%v validated", f.Name, vals.invalid)
				}
				o := with(vals.valid)
				if reflect.DeepEqual(o.Normalized(), base.Normalized()) {
					t.Fatalf("%s=%v is the request's own value", f.Name, vals.valid)
				}
				if reflect.DeepEqual(lines(o), baseLines) {
					t.Errorf("%s=%v is read but leaves the lines", f.Name, vals.valid)
				}
			}
			got, err := spec.lines(context.Background(), ignored, &figureCSV{})
			if err != nil || !reflect.DeepEqual(got, baseLines) {
				t.Errorf("the runner reads a field of %v, which the descriptor leaves out (%v)", ignoredNames, err)
			}
		})
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
