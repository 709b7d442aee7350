package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/trace"
)

// hashOf computes the canonical hash of a request body the way the
// server will.
func hashOf(t testing.TB, body string) string {
	t.Helper()
	var req blitzcoin.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	h, err := req.Normalized().CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// sseEvent is one parsed frame of an SSE response.
type sseEvent struct {
	event string
	data  streamEvent
}

// readSSE parses frames until the stream ends, the terminal sweep event
// arrives, or the limit is hit.
func readSSE(t *testing.T, body *bufio.Scanner, limit int) []sseEvent {
	t.Helper()
	var out []sseEvent
	event := ""
	for body.Scan() && len(out) < limit {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var se streamEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &se); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			out = append(out, sseEvent{event, se})
			if event == "sweep-done" || event == "sweep-failed" {
				return out
			}
		}
	}
	return out
}

// TestStreamFollowsSweep: a subscriber attached before the sweep sees its
// trial progress and the terminal sweep-done event.
func TestStreamFollowsSweep(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"trials": 3, "exchange": {"dim": 4, "torus": true, "random_pairing": true, "seed": 41}}`
	hash := hashOf(t, body)

	resp, err := ts.Client().Get(ts.URL + "/v1/stream?hash=" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("content type %q", got)
	}

	post, env := postSweep(t, ts, body)
	if post.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", post.StatusCode)
	}
	if env.RequestHash != hash {
		t.Fatalf("hash drift: client %s, server %s", hash, env.RequestHash)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	events := readSSE(t, sc, 1000)
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	byType := map[string]int{}
	for _, ev := range events {
		byType[ev.event]++
		if ev.data.Key != hash {
			t.Fatalf("foreign event key %q", ev.data.Key)
		}
	}
	if byType["trial-start"] != 3 || byType["trial-done"] != 3 {
		t.Fatalf("trial events %v, want 3 starts and 3 dones", byType)
	}
	if byType["sweep-start"] != 1 || byType["sweep-done"] != 1 {
		t.Fatalf("lifecycle events %v", byType)
	}
	last := events[len(events)-1]
	if last.event != "sweep-done" || !last.data.OK || last.data.Cached {
		t.Fatalf("terminal event %+v", last)
	}
}

// TestStreamCachedHashAnswersImmediately: a hash already in the cache
// gets one synthetic sweep-done instead of an open-ended stream.
func TestStreamCachedHashAnswersImmediately(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := postSweep(t, ts, tinyExchange); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	hash := hashOf(t, tinyExchange)

	resp, err := ts.Client().Get(ts.URL + "/v1/stream?hash=" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	events := readSSE(t, sc, 10)
	if len(events) != 1 {
		t.Fatalf("got %d events, want the synthetic done", len(events))
	}
	if ev := events[0]; ev.event != "sweep-done" || !ev.data.Cached || !ev.data.OK {
		t.Fatalf("synthetic event %+v", ev)
	}
}

// TestStreamProbeLeavesCacheCounters: /v1/stream checks whether its hash
// is already cached, but the probe serves no result, so it counts neither
// a hit nor a miss, whether the sweep finished before the subscription or
// not.
func TestStreamProbeLeavesCacheCounters(t *testing.T) {
	srv := New(Config{Logger: quiet, Bus: trace.NewBus()})
	h := srv.Handler()
	serve(t, h, http.MethodPost, "/v1/sweep", tinyExchange, "", http.StatusOK) // one miss, then computed
	serve(t, h, http.MethodGet, "/v1/stream?hash="+hashOf(t, tinyExchange), "", "", http.StatusOK)
	// A subscription before its sweep, from a client already gone: the
	// stream ends right after its probe.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/stream?hash="+hashOf(t, exchangeBody(99)), nil)
	h.ServeHTTP(httptest.NewRecorder(), req.WithContext(ctx))

	if hits, misses, _, _, _ := srv.cache.stats(); hits != 0 || misses != 1 {
		t.Errorf("cache hits=%d misses=%d, want 0 and 1 (only the sweep's lookup counts)", hits, misses)
	}
}

// TestStreamDrain: new subscriptions are refused with 503+Retry-After
// once the drain begins, while a stream that was already following an
// in-flight sweep still receives its completion.
func TestStreamDrain(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{
		Logger:  quiet,
		Workers: 2,
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			<-release
			return blitzcoin.Execute(ctx, req)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"trials": 2, "exchange": {"dim": 4, "torus": true, "random_pairing": true, "seed": 43}}`
	hash := hashOf(t, body)

	// Attach a subscriber, then start the sweep and wait until its flight
	// is registered.
	resp, err := ts.Client().Get(ts.URL + "/v1/stream?hash=" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		postSweep(t, ts, body)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.flights.active(hash) {
		if time.Now().After(deadline) {
			t.Fatal("flight never became active")
		}
		time.Sleep(time.Millisecond)
	}

	srv.BeginDrain()

	// New subscriptions are refused.
	refused, err := ts.Client().Get(ts.URL + "/v1/stream?hash=" + hash)
	if err != nil {
		t.Fatal(err)
	}
	refused.Body.Close()
	if refused.StatusCode != http.StatusServiceUnavailable || refused.Header.Get("Retry-After") == "" {
		t.Fatalf("draining subscription: status %d, Retry-After %q",
			refused.StatusCode, refused.Header.Get("Retry-After"))
	}

	// The in-flight sweep finishes and the open stream sees it through.
	close(release)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	events := readSSE(t, sc, 1000)
	if len(events) == 0 || events[len(events)-1].event != "sweep-done" {
		t.Fatalf("drained stream ended without sweep-done (%d events)", len(events))
	}
	<-sweepDone
}

// TestStreamRejectsBadRequests: non-GET and missing hash are 4xx.
func TestStreamRejectsBadRequests(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/stream", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST stream: %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing hash: %d", resp.StatusCode)
	}
}

// TestLedgerStampingAndProof: with a ledger configured, served results
// carry ledger provenance, the proof endpoint returns a verifying
// inclusion proof bound to the canonical result SHA, and the cached copy
// is byte-identical on re-serve.
func TestLedgerStampingAndProof(t *testing.T) {
	led, err := ledger.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Logger: quiet, Workers: 2, Ledger: led})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, env := postSweep(t, ts, tinyExchange)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	var res blitzcoin.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	meta := res.Meta()
	if meta == nil || meta.LedgerSeq != 1 || meta.LedgerRoot == "" {
		t.Fatalf("result not stamped: %+v", meta)
	}

	sha, err := blitzcoin.CanonicalResultSHA(env.Result)
	if err != nil {
		t.Fatal(err)
	}
	proofResp, err := ts.Client().Get(ts.URL + "/v1/ledger/proof?hash=" + env.RequestHash)
	if err != nil {
		t.Fatal(err)
	}
	defer proofResp.Body.Close()
	if proofResp.StatusCode != http.StatusOK {
		t.Fatalf("proof status %d", proofResp.StatusCode)
	}
	var p ledger.Proof
	if err := json.NewDecoder(proofResp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Key != env.RequestHash || p.Engine != blitzcoin.EngineVersion || p.ResultSHA != sha {
		t.Fatalf("proof binds (%s, %s, %s); served (%s, %s, %s)",
			p.Key, p.Engine, p.ResultSHA, env.RequestHash, blitzcoin.EngineVersion, sha)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("proof: %v", err)
	}
	if p.Root != meta.LedgerRoot {
		t.Fatalf("stamped root %s, proof root %s", meta.LedgerRoot, p.Root)
	}

	// The cached re-serve is byte-identical, stamp included.
	resp2, env2 := postSweep(t, ts, tinyExchange)
	if resp2.StatusCode != http.StatusOK || !env2.Cached {
		t.Fatalf("reserve: status %d cached %v", resp2.StatusCode, env2.Cached)
	}
	if string(env2.Result) != string(env.Result) {
		t.Fatal("cached result bytes drifted from the stamped original")
	}

	rootResp, err := ts.Client().Get(ts.URL + "/v1/ledger/root")
	if err != nil {
		t.Fatal(err)
	}
	defer rootResp.Body.Close()
	var rb ledgerRootBody
	if err := json.NewDecoder(rootResp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	if rb.Size != 1 || rb.Root != p.Root {
		t.Fatalf("ledger root %+v, proof root %s", rb, p.Root)
	}
}

// TestLedgerEndpointsWithoutLedger: both endpoints 404 when blitzd runs
// without -ledger.
func TestLedgerEndpointsWithoutLedger(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/ledger/proof?hash=x", "/v1/ledger/root"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
