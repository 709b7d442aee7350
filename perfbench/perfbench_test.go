package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blitzcoin"
)

func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 (nearest rank, 10 beyond)", v, err)
	}
	if v, err := percentile(seq(7), 0.5); err != nil || v != 4 {
		t.Fatalf("p50 of 1..7 = %v, %v; want 4", v, err)
	}
	if _, err := percentile(seq(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread(xs); math.Abs(s-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestNormalization(t *testing.T) {
	// Reference points at nominal, then twice nominal: a block whose
	// window mean is 2×nominal ran on a host half as fast, so its host
	// times halve in reference-host units.
	n, d := refNominalMs, 2*refNominalMs
	c := &clock{refs: []float64{n, n, n, n, n, d, d, d, d, d, d, d, d}}
	c.blocks = []blockTime{{wallMs: 100, ref: 0}, {wallMs: 200, ref: 10}}
	c.refactor()
	if f := c.blocks[0].factor; f != 1 {
		t.Fatalf("factor around nominal points = %v, want 1", f)
	}
	if f := c.blocks[1].factor; f != 0.5 {
		t.Fatalf("factor around 2x points = %v, want 0.5", f)
	}
	raw, norm := c.rate(30, []int{0, 1})
	if raw != 100 || norm != 150 {
		t.Fatalf("rate = %v raw, %v normalized; want 100 and 150", raw, norm)
	}
	rs, ns := c.seconds([]int{1})
	if rs[0] != 0.2 || ns[0] != 0.1 {
		t.Fatalf("seconds = %v raw, %v normalized", rs, ns)
	}
}

func TestReferenceAllocatesNothing(t *testing.T) {
	var k refKernel
	if a := testing.AllocsPerRun(3, func() { k.run() }); a != 0 {
		t.Fatalf("reference kernel allocates %v objects per run", a)
	}
	if x, y := k.run(), k.run(); x != y {
		t.Fatalf("reference kernel is not deterministic: %d then %d", x, y)
	}
}

func TestGuardFiresOnBusyGoroutine(t *testing.T) {
	c := newClock(1, guard{idle: idleGoroutines(), grace: 20 * time.Millisecond})
	if err := c.point(); err != nil {
		t.Fatalf("quiescent point: %v", err)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			runtime.Gosched()
		}
	}()
	err := c.point()
	stop.Store(true)
	<-done
	if err == nil || !strings.Contains(err.Error(), "not quiescent") {
		t.Fatalf("guard with a busy goroutine: err = %v", err)
	}
	busy := newClock(1, guard{idle: idleGoroutines(), grace: 20 * time.Millisecond, busy: func() bool { return true }})
	if err := busy.point(); err == nil {
		t.Fatal("guard with server work in flight did not fire")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps 1: union 10..50
		{ID: 3, Parent: 0, Start: 60, End: 70},
		{ID: 4, Parent: 0, Start: 95, End: 120}, // clipped to the parent: 95..100
		{ID: 5, Parent: 3, Start: 62, End: 64},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10 - 5, 20, 30, 8, 25, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

// digest fingerprints generated inputs through their wire form.
func digest(t *testing.T, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func serveSequence(t *testing.T, seed uint64) string {
	p := serveParams{fixture: 600, hot: 64, blocks: 2, perBlock: 1000}
	fix := make([][]byte, p.fixture)
	for i := range fix {
		fix[i] = mustJSON(fixtureRequest(seed, i))
	}
	g := newReadGen(seed, p)
	var all []unit
	for b := 0; b < p.blocks; b++ {
		all = append(all, serveBlock(seed, p, b, g, fix)...)
	}
	type wire struct {
		Kind string
		Body string
		Req  blitzcoin.Request
	}
	ws := make([]wire, len(all))
	for i, u := range all {
		ws[i] = wire{u.kind, string(u.body), u.req}
	}
	return digest(t, ws)
}

func TestGeneratorsAreFixedBySeed(t *testing.T) {
	gens := map[string]func(uint64) string{
		"exchange": func(s uint64) string {
			return digest(t, [][]blitzcoin.Request{exchangeBlock(s, 0), exchangeBlock(s, 7)})
		},
		"soc":   func(s uint64) string { return digest(t, [][]blitzcoin.Request{socBlock(s, 0), socBlock(s, 7)}) },
		"serve": func(s uint64) string { return serveSequence(t, s) },
	}
	// The sequences for seed 1, pinned: a change here is a change of the
	// benchmark's inputs and needs a new benchmark version.
	golden := map[string]string{
		"exchange": "d00c071c86a979e2",
		"soc":      "678a8519b2826c4d",
		"serve":    "e883db1babddfb3d",
	}
	for name, gen := range gens {
		first := gen(1)
		time.Sleep(5 * time.Millisecond)
		if again := gen(1); again != first {
			t.Errorf("%s: same seed gave a different sequence (%s, %s)", name, first, again)
		}
		if other := gen(2); other == first {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
		if first != golden[name] {
			t.Errorf("%s: sequence for seed 1 is %s, pinned %s", name, first, golden[name])
		}
	}
}

func TestChecksCatchNonConservingTrial(t *testing.T) {
	req := exchangeShapes[0].request(1)
	res := &blitzcoin.Result{Kind: blitzcoin.KindExchange, Exchange: &blitzcoin.ExchangeSweepResult{
		Rows: []blitzcoin.ExchangeResult{{CoinsConserved: true, Converged: true}, {CoinsConserved: true, PoolViolation: 3}},
	}}
	st := &engineStats{}
	if _, msg := st.checkResult(req, res); !strings.Contains(msg, "not conserved") {
		t.Fatalf("pool violation not caught: %q", msg)
	}
	res.Exchange.Rows[1] = blitzcoin.ExchangeResult{CoinsConserved: false}
	if _, msg := st.checkResult(req, res); msg == "" {
		t.Fatal("unconserved trial not caught")
	}
	res.Exchange.Rows[1] = blitzcoin.ExchangeResult{CoinsConserved: true}
	if _, msg := st.checkResult(req, res); msg != "" {
		t.Fatalf("conserving trials flagged: %q", msg)
	}
}

// corruptingHandler serves /v1/sweep envelopes whose result bytes change
// after the first response: a corrupted served result.
type corruptingHandler struct{ n int }

func (h *corruptingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.n++
	result := `{"kind": "exchange", "exchange": {"trials": 1}}`
	if h.n > 1 {
		result = `{"kind": "exchange", "exchange": {"trials": 2}}`
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "{\n  \"request_hash\": %q,\n  \"cached\": true,\n  \"tier\": \"memory\",\n  \"coalesced\": false,\n  \"result\": %s\n}\n", strings.Repeat("ab", 32), result)
}

func TestChecksCatchCorruptedServedResult(t *testing.T) {
	s := &servePass{d: &daemon{h: &corruptingHandler{}}, byClass: map[string]int{}, sums: map[string]uint64{}, computed: map[string]computedKey{}}
	record := func(float64) {}
	s.sweep(unit{kind: "hot", body: []byte("{}")}, 1, record)
	if s.failed != 0 {
		t.Fatalf("first response failed: %v", s.errs)
	}
	s.sweep(unit{kind: "hot", body: []byte("{}")}, 2, record)
	if s.failed != 1 || !strings.Contains(strings.Join(s.errs, ";"), "different result bytes") {
		t.Fatalf("corrupted result not caught: failed=%d errs=%v", s.failed, s.errs)
	}
}

func TestSplitEnvelope(t *testing.T) {
	body := []byte("{\n  \"request_hash\": \"h\",\n  \"tier\": \"disk\",\n  \"cached\": true,\n  \"coalesced\": false,\n  \"result\": {\n    \"a\": {\n      \"b\": 1\n    }\n  }\n}\n")
	e, err := splitEnvelope(body, "result")
	if err != nil {
		t.Fatal(err)
	}
	if e.RequestHash != "h" || e.Tier != "disk" || !e.Cached || e.Coalesced {
		t.Fatalf("head = %+v", e)
	}
	var v map[string]map[string]int
	if err := json.Unmarshal(e.payload, &v); err != nil || v["a"]["b"] != 1 {
		t.Fatalf("payload %q: %v", e.payload, err)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the code:\n file %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code:\n file %v\n code %v", doc.PerLayer, perLayer)
	}
}

func TestReportRefusesMixedCohorts(t *testing.T) {
	run := func(seed uint64, source string) savedRun {
		return savedRun{file: fmt.Sprint(seed), detail: detail{Stamp: stamp{Workload: "w", SourceSHA: source, Seed: seed}},
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"p50_ms": {Value: float64(seed), Unit: "ms"}}}}
	}
	var out strings.Builder
	if err := report([]savedRun{run(1, "a"), run(2, "a"), run(3, "a")}, &out); err != nil {
		t.Fatalf("same cohort, different seeds: %v", err)
	}
	if !strings.Contains(out.String(), "p50_ms") {
		t.Fatalf("report lacks the metric:\n%s", out.String())
	}
	if err := report([]savedRun{run(1, "a"), run(2, "b")}, &out); err == nil {
		t.Fatal("runs of different sources were pooled")
	}
}
