package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blitzcoin"
	"blitzcoin/internal/ledger"
)

// sweepKeyOf runs body through handleSweep's decode path: the memo, then
// the strict decode on a miss.
func sweepKeyOf(m *bodyMemo, body []byte) (sweepKey, error) {
	b := readBody(bytes.NewReader(body), new(bodyBuf))
	if k, ok := m.get(b); ok {
		return k, nil
	}
	var req blitzcoin.Request
	norm, hash, err := m.decode(b, &req)
	return sweepKey{string(norm.Kind), hash}, err
}

// memoHolds reports whether the memo holds body.
func memoHolds(m *bodyMemo, body []byte) bool {
	_, ok := m.get(readBody(bytes.NewReader(body), new(bodyBuf)))
	return ok
}

// countingRun is a RunFunc that counts its executions.
func countingRun(n *atomic.Int64) RunFunc {
	return func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
		n.Add(1)
		return blitzcoin.Execute(ctx, req)
	}
}

// TestSweepBodyLimit sends a body whose JSON value runs past sweepBodyMax,
// which is refused with 413 before any computation, and one just under it,
// which is served like its unpadded spelling.
func TestSweepBodyLimit(t *testing.T) {
	var runs atomic.Int64
	srv := New(Config{Logger: quiet, Run: countingRun(&runs)})
	h := srv.Handler()
	padded := func(size int) string {
		head, tail := `{"trials": 2`, strings.TrimPrefix(tinyExchange, `{"trials": 2`)
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}

	rec := serve(t, h, http.MethodPost, "/v1/sweep", padded(sweepBodyMax+1), "", http.StatusRequestEntityTooLarge)
	if !strings.Contains(rec.Body.String(), "request body too large") {
		t.Errorf("413 body %q does not name the limit", rec.Body)
	}
	if runs.Load() != 0 || len(srv.memo.keys) != 0 {
		t.Fatalf("a refused body ran %d computations and left %d memo entries", runs.Load(), len(srv.memo.keys))
	}
	if n := srv.metrics.requests[[2]string{"invalid", "invalid"}]; n != 1 {
		t.Errorf("invalid/invalid counted %d requests, want 1", n)
	}

	rec = serve(t, h, http.MethodPost, "/v1/sweep", padded(sweepBodyMax), "", http.StatusOK)
	var env Response
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if want := hashOf(t, tinyExchange); env.RequestHash != want || env.Cached || runs.Load() != 1 {
		t.Errorf("under the limit: hash %s cached %v after %d runs, want %s computed once", env.RequestHash, env.Cached, runs.Load(), want)
	}
	if len(srv.memo.keys) != 0 {
		t.Errorf("a body longer than memoBodyMax entered the memo")
	}
}

// TestMemoBound fills the memo to memoBytesMax with distinct bodies of
// memoBodyMax bytes; the insert that would pass the bound starts a fresh
// map.
func TestMemoBound(t *testing.T) {
	var m bodyMemo
	body := func(seed int) []byte {
		b := exchangeBody(seed)
		return []byte(b + strings.Repeat(" ", memoBodyMax-len(b)))
	}
	const fill = memoBytesMax / memoBodyMax
	for seed := 0; seed <= fill; seed++ {
		if _, err := sweepKeyOf(&m, body(seed)); err != nil {
			t.Fatal(err)
		}
		if seed == fill-1 && (len(m.keys) != fill || m.bytes != memoBytesMax) {
			t.Fatalf("full memo: %d entries, %d bytes; want %d, %d", len(m.keys), m.bytes, fill, memoBytesMax)
		}
	}
	if len(m.keys) != 1 || m.bytes != memoBodyMax || memoHolds(&m, body(0)) || !memoHolds(&m, body(fill)) {
		t.Fatalf("after passing the bound: %d entries, %d bytes; want only the last body", len(m.keys), m.bytes)
	}
}

// TestMemoryHitAllocations bounds the allocations of one /v1/sweep memory
// hit through the handler. A hit reads its body into a pooled buffer and
// finds its key in the memo, so it runs neither the JSON decoder nor the
// canonical hash. One fresh recorder per hit included, a hit allocates 21
// times (24 under -race), and 43 times when every hit decoded its body
// (49 under -race).
func TestMemoryHitAllocations(t *testing.T) {
	h := New(Config{Logger: quiet}).Handler()
	serve(t, h, http.MethodPost, "/v1/sweep", tinyExchange, "", http.StatusOK)
	body, raw := &rewindBody{}, []byte(tinyExchange)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", nil)
	req.Body = body
	allocs := testing.AllocsPerRun(200, func() {
		body.Reset(raw)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("memory hit: HTTP %d: %s", rec.Code, rec.Body)
		}
	})
	if allocs > 32 {
		t.Errorf("a memory hit allocates %.0f times, want at most 32", allocs)
	}
}

// rewindBody is a request body one test request rereads.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestMemoConcurrentResend has several clients resend the same bodies at
// once, two spellings of one request among them, first to a cold server
// and then to a warm one: each is answered with its request's hash, the
// cold pass computes each distinct request once, the warm pass computes
// nothing, and the two spellings are two memo entries with one hash. With a
// ledger, each distinct request is ledgered once.
func TestMemoConcurrentResend(t *testing.T) {
	mem, err := ledger.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, led := range []*ledger.Ledger{nil, mem} {
		concurrentResend(t, led)
	}
}

// TestIgnoredFigureOptionsShareOneEntry: options a figure does not read
// leave its canonical hash, so a request that sets them is a memory hit on
// the plain request's entry, computed and ledgered once.
func TestIgnoredFigureOptionsShareOneEntry(t *testing.T) {
	led, err := ledger.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	srv := New(Config{Logger: quiet, Run: countingRun(&runs), Ledger: led})
	h := srv.Handler()
	envelope := func(body string) Response {
		var env Response
		rec := serve(t, h, http.MethodPost, "/v1/sweep", body, "", http.StatusOK)
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		return env
	}
	plain := envelope(`{"figure":{"name":"13"}}`)
	ignored := envelope(`{"figure":{"name":"13","trials":5,"dims":[4]}}`)
	if plain.Cached || !ignored.Cached || ignored.Tier != "memory" || ignored.RequestHash != plain.RequestHash {
		t.Errorf("plain request cached=%v hash %s; with ignored options cached=%v tier %q hash %s",
			plain.Cached, short(plain.RequestHash), ignored.Cached, ignored.Tier, short(ignored.RequestHash))
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("%d computations, want 1", n)
	}
	if n := srv.metrics.ledgerAppend.Count(); n != 1 {
		t.Errorf("%d ledger appends, want 1", n)
	}
}

// concurrentResend is one pass of TestMemoConcurrentResend on a fresh
// server, ledgered when led is non-nil.
func concurrentResend(t *testing.T, led *ledger.Ledger) {
	var runs atomic.Int64
	srv := New(Config{Logger: quiet, Run: countingRun(&runs), Ledger: led})
	h := srv.Handler()
	spelled := `{"version": "` + blitzcoin.APIVersion + `", "kind": "exchange", ` + strings.TrimPrefix(tinyExchange, "{")
	bodies := []string{tinyExchange, spelled, exchangeBody(2), `{"trials": -1}`}
	want := []string{hashOf(t, tinyExchange), hashOf(t, tinyExchange), hashOf(t, exchangeBody(2)), ""}

	resend := func() {
		const clients, rounds = 6, 20
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					j := (c + i) % len(bodies)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(bodies[j])))
					if want[j] == "" {
						if rec.Code != http.StatusBadRequest {
							t.Errorf("body %d: HTTP %d, want 400", j, rec.Code)
						}
						continue
					}
					var env Response
					if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusOK || err != nil || env.RequestHash != want[j] {
						t.Errorf("body %d: HTTP %d, hash %s (%v), want %s", j, rec.Code, env.RequestHash, err, want[j])
					}
				}
			}(c)
		}
		wg.Wait()
	}
	resend()
	cold := runs.Load()
	if cold != 2 {
		t.Errorf("ledger=%v: the cold pass computed %d times for 2 distinct requests", led != nil, cold)
	}
	resend()
	if runs.Load() != cold {
		t.Errorf("ledger=%v: the warm pass computed %d times", led != nil, runs.Load()-cold)
	}
	if led != nil {
		// Ledger.Append keeps one entry for a repeated identical result,
		// so the append count is what shows a second computation.
		if n := srv.metrics.ledgerAppend.Count(); n != 2 {
			t.Errorf("%d ledger appends for 2 distinct requests", n)
		}
		if n := led.Size(); n != 2 {
			t.Errorf("ledger holds %d entries for 2 distinct requests", n)
		}
		for _, hash := range []string{want[0], want[2]} {
			if _, err := led.Proof(hash, blitzcoin.EngineVersion); err != nil {
				t.Errorf("request %s not ledgered: %v", short(hash), err)
			}
		}
	}
	for j, b := range bodies {
		if got := memoHolds(&srv.memo, []byte(b)); got != (want[j] != "") {
			t.Errorf("body %d held by the memo: %v", j, got)
		}
	}
	if k0, k1 := srv.memo.keys[bodies[0]], srv.memo.keys[bodies[1]]; k0 != k1 || k0.hash != want[0] || k0.kind != "exchange" {
		t.Errorf("two spellings memoized as %+v and %+v, want one key with hash %s", k0, k1, want[0])
	}
	if len(srv.memo.keys) != 3 {
		t.Errorf("memo holds %d bodies, want 3", len(srv.memo.keys))
	}
}
