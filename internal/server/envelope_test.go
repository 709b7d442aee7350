package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/store"
	"blitzcoin/internal/trace"
)

// elapsedField matches the one wall-clock field of a success envelope.
var elapsedField = regexp.MustCompile(`"elapsed_micros": -?[0-9]+`)

// envelopePayloads are the /v1/sweep requests the envelope golden serves:
// one per result kind, the figure with a non-ASCII title.
var envelopePayloads = []struct{ name, body string }{
	{"exchange", tinyExchange},
	{"soc", `{"soc": {"soc": "3x3", "repeat": 1, "seed": 5}}`},
	{"figure", `{"figure": {"name": "table1"}}`},
}

// coalescedPair serves body twice with the second request joining the
// first's flight, and returns both responses, leader first. Every
// computation on srv must block on release until the follower has joined.
func coalescedPair(t *testing.T, srv *Server, h http.Handler, release chan<- struct{}, body string) (leader, follower *httptest.ResponseRecorder) {
	t.Helper()
	hash := hashOf(t, body)
	joined := coalescedSoFar(srv) + 1
	post := func(rec *httptest.ResponseRecorder, wg *sync.WaitGroup) {
		defer wg.Done()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
	}
	leader, follower = httptest.NewRecorder(), httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(2)
	go post(leader, &wg)
	waitFor(t, func() bool { return srv.flights.active(hash) })
	go post(follower, &wg)
	waitFor(t, func() bool { return coalescedSoFar(srv) == joined })
	release <- struct{}{}
	wg.Wait()
	for _, rec := range []*httptest.ResponseRecorder{leader, follower} {
		if rec.Code != http.StatusOK {
			t.Fatalf("coalesced pair: HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	return leader, follower
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
	}
}

// TestEnvelopesGolden pins the full success bodies of /v1/sweep (computed,
// coalesced follower, memory hit and disk hit, for an exchange, a SoC and
// a figure result) and /v1/shard (computed, memory hit and disk hit) on a
// ledgered server, elapsed_micros masked.
func TestEnvelopesGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	led, err := ledger.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	srv := New(Config{
		Logger:       quiet,
		CacheEntries: 1,
		Store:        st,
		Ledger:       led,
		Bus:          trace.NewBus(),
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			<-release
			return blitzcoin.Execute(ctx, req)
		},
	})
	h := srv.Handler()

	var out strings.Builder
	record := func(name string, rec *httptest.ResponseRecorder) {
		fmt.Fprintf(&out, "=== %s\n%s", name, elapsedField.ReplaceAllString(rec.Body.String(), `"elapsed_micros": *`))
	}
	for _, p := range envelopePayloads {
		leader, follower := coalescedPair(t, srv, h, release, p.body)
		record(p.name+" computed", leader)
		record(p.name+" coalesced", follower)
		record(p.name+" memory", serve(t, h, http.MethodPost, "/v1/sweep", p.body, "", http.StatusOK))
	}
	// The one-entry memory tier holds only the last payload; each ask
	// below is served from disk and evicts the one before it.
	for _, p := range envelopePayloads {
		record(p.name+" disk", serve(t, h, http.MethodPost, "/v1/sweep", p.body, "", http.StatusOK))
	}

	other := `{"request": ` + tinyExchange + `, "lo": 1, "hi": 2}`
	record("shard computed", serve(t, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusOK))
	record("shard memory", serve(t, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusOK))
	serve(t, h, http.MethodPost, "/v1/shard", other, "", http.StatusOK) // evicts tinyShard
	record("shard disk", serve(t, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusOK))

	checkGolden(t, "envelopes.golden", out.String())
}

// referenceEnvelope encodes a whole envelope with encoding/json, exactly
// as writeJSON writes error and control bodies: the oracle for
// writeResponse and writeShardResponse.
func referenceEnvelope(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return buf.Bytes()
}

// checkEnvelope compares a byte writer's response with the reference body.
func checkEnvelope(t *testing.T, name string, rec *httptest.ResponseRecorder, want []byte) {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("%s: HTTP %d, Content-Type %q", name, rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the reference encoding\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// FuzzEnvelope: for any valid JSON payload and any envelope field values,
// writing the rendered payload through the byte writers produces the
// bytes the reference encoding produces for the whole envelope. The
// server only ever renders json.Marshal output or checksum-verified
// store blobs, so invalid payloads are skipped.
func FuzzEnvelope(f *testing.F) {
	for i, payload := range []string{
		`{"html":"<script>a && b</script>"}`,
		"[\"line\u2028separator\", \"para\u2029graph\", \"\u2028\"]",
		`{"title":"Table I — non-ASCII ✓ µs"}`,
		`{"q":"say \"hi\" \\ back","esc":"\u003c\u0026\t\n"}`,
		" {\n\t\"a\" : [ 1 , 2.5e-3 , -0 ] ,\r\n \"b\":{ } , \"c\" : [ ] } \n",
		`[]`,
		`{}`,
		`[[],{},[{}],{"a":[]}]`,
		`[[[[[[[[[[{"deep":[[[[{"deeper":[null,true,false]}]]]]}]]]]]]]]]]`,
		`"a bare string"`,
		`12345678901234567890`,
		`null`,
	} {
		f.Add([]byte(payload), "v1", "exchange", "0123abcd<&>", "7", []string{"memory", "", "disk", "x\u2028\"y"}[i%4], i%2 == 0, i%3 == 0, int64(i)*12345-9, i, 2*i+1)
	}
	f.Add([]byte(`{"a":1}`), "\x00\x7f\xff", "é\t", "\"quoted\"", "\\", "\u2029", true, true, int64(-1)<<63, -1<<31, 1<<31)
	f.Fuzz(func(t *testing.T, payload []byte, version, kind, hash, engine, tier string, cached, coalesced bool, elapsed int64, lo, hi int) {
		if !json.Valid(payload) {
			t.Skip()
		}
		res, err := render(payload)
		if err != nil {
			t.Fatalf("valid payload failed to render: %v", err)
		}
		if res.size != len(payload) {
			t.Fatalf("size %d, want the marshaled length %d", res.size, len(payload))
		}

		resp := Response{Version: version, Kind: kind, RequestHash: hash, EngineVersion: engine,
			Cached: cached, Tier: tier, Coalesced: coalesced, ElapsedMicros: elapsed, Result: payload}
		rec := httptest.NewRecorder()
		writeResponse(rec, &resp, res)
		checkEnvelope(t, "sweep envelope", rec, referenceEnvelope(t, resp))

		shard := ShardResponse{Version: version, Kind: kind, RequestHash: hash, EngineVersion: engine,
			Lo: lo, Hi: hi, Cached: cached, Coalesced: coalesced, ElapsedMicros: elapsed, Shard: payload}
		rec = httptest.NewRecorder()
		writeShardResponse(rec, &shard, res)
		checkEnvelope(t, "shard envelope", rec, referenceEnvelope(t, shard))
	})
}

// TestUnrenderableResultIs500: a stored blob that is not JSON fails to
// render; the request gets a 500 instead of a 200 with an empty body, and
// nothing enters the memory tier.
func TestUnrenderableResultIs500(t *testing.T) {
	st, err := store.Open(t.TempDir(), blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hash := hashOf(t, tinyExchange)
	for _, key := range []string{hash, hash + ":0-1"} {
		if err := st.Put(key, "exchange", []byte(`{"rows": [1, 2`)); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(Config{Logger: quiet, Store: st})
	h := srv.Handler()
	serve(t, h, http.MethodPost, "/v1/sweep", tinyExchange, "", http.StatusInternalServerError)
	serve(t, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusInternalServerError)
	if _, _, _, entries, _ := srv.cache.stats(); entries != 0 {
		t.Errorf("%d results cached, want none", entries)
	}
}
