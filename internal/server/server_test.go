package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blitzcoin"
)

// quiet drops log output in tests.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, Response) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env Response
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("bad envelope %q: %v", raw, err)
		}
	}
	return resp, env
}

const tinyExchange = `{"trials": 2, "exchange": {"dim": 4, "torus": true, "random_pairing": true, "seed": 1}}`

func TestCoalescingSharesOneComputation(t *testing.T) {
	var executions atomic.Int64
	release := make(chan struct{})
	srv := New(Config{
		Logger:  quiet,
		Workers: 4,
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			executions.Add(1)
			<-release
			return blitzcoin.Execute(ctx, req)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	envs := make([]Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, env := postSweep(t, ts, tinyExchange)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: HTTP %d", i, resp.StatusCode)
			}
			envs[i] = env
		}(i)
	}
	// Release the single computation only once every other request has
	// joined the flight, so coalescing is actually exercised. (Inflight
	// counts a request from handler entry, before it reaches the flight.)
	deadline := time.After(10 * time.Second)
	for coalescedSoFar(srv) < n-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d requests joined the flight", coalescedSoFar(srv))
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("%d executions for %d identical requests, want 1", got, n)
	}
	coalesced := 0
	for i := 1; i < n; i++ {
		if !bytes.Equal(envs[i].Result, envs[0].Result) {
			t.Fatalf("request %d result differs", i)
		}
		if envs[i].Coalesced {
			coalesced++
		}
	}
	if envs[0].Coalesced {
		coalesced++
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, n-1)
	}
}

// coalescedSoFar reads how many requests have joined another's flight.
func coalescedSoFar(srv *Server) uint64 {
	return srv.metrics.coalesced.Load()
}

func TestCacheHitIsByteIdentical(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postSweep(t, ts, tinyExchange)
	if first.Cached {
		t.Fatal("first request claims cached")
	}
	if first.RequestHash == "" || first.EngineVersion != blitzcoin.EngineVersion {
		t.Fatalf("envelope underspecified: %+v", first)
	}

	// Same request, spelled with the defaults elided differently — the
	// canonical hash must still hit.
	respelled := `{"kind": "exchange", "trials": 2, "exchange": {"dim": 4, "torus": true, "random_pairing": true, "mode": "1-way", "seed": 1}}`
	_, second := postSweep(t, ts, respelled)
	if !second.Cached {
		t.Fatal("second request missed the cache")
	}
	if second.RequestHash != first.RequestHash {
		t.Fatalf("hash drifted: %s vs %s", second.RequestHash, first.RequestHash)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatal("cached result not byte-identical")
	}

	// The cached rows really are the computation's rows.
	var res blitzcoin.Result
	if err := json.Unmarshal(second.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Exchange == nil || len(res.Exchange.Rows) != 2 {
		t.Fatalf("cached result shape: %+v", res)
	}
}

func TestCacheEviction(t *testing.T) {
	srv := New(Config{Logger: quiet, CacheEntries: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postSweep(t, ts, tinyExchange)
	postSweep(t, ts, `{"trials": 1, "exchange": {"dim": 4, "seed": 9}}`)
	_, again := postSweep(t, ts, tinyExchange)
	if again.Cached {
		t.Fatal("evicted entry served from cache")
	}
	_, _, evictions, entries, _ := srv.cache.stats()
	if evictions == 0 || entries != 1 {
		t.Fatalf("evictions=%d entries=%d", evictions, entries)
	}
}

func TestMetricsAfterRequest(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postSweep(t, ts, tinyExchange)
	postSweep(t, ts, tinyExchange)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`blitzd_requests_total{kind="exchange",status="ok"} 2`,
		"blitzd_cache_hits_total 1",
		"blitzd_cache_misses_total 1",
		"blitzd_cache_entries 1",
		"blitzd_sweep_rows_total 2",
		"blitzd_request_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "blitzd_cache_bytes 0\n") {
		t.Error("cache bytes gauge stayed zero")
	}
}

func TestValidationErrors(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"empty":         `{}`,
		"bad json":      `{"exchange": `,
		"unknown field": `{"exchange": {"dimension": 4}}`,
		"bad options":   `{"exchange": {"dim": 1}}`,
		"two payloads":  `{"exchange": {}, "soc": {}}`,
	} {
		resp, _ := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/sweep")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: HTTP %d, want 405", resp.StatusCode)
	}
}

func TestEngineErrorIs500(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Validates (names are known) but panics inside the engine: the 3x3
	// platform lacks the CV accelerators.
	resp, _ := postSweep(t, ts, `{"soc": {"soc": "3x3", "workload": "cv-parallel", "repeat": 1}}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("HTTP %d, want 500", resp.StatusCode)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		Logger: quiet,
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			close(started)
			<-release
			return blitzcoin.Execute(ctx, req)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan Response, 1)
	go func() {
		_, env := postSweep(t, ts, tinyExchange)
		done <- env
	}()
	<-started

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// While draining, new sweeps are refused.
	for srv.draining.Load() == false {
		time.Sleep(time.Millisecond)
	}
	resp, _ := postSweep(t, ts, `{"trials": 1, "exchange": {"dim": 4, "seed": 3}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: HTTP %d, want 503", resp.StatusCode)
	}

	// The in-flight sweep still completes.
	close(release)
	env := <-done
	if len(env.Result) == 0 {
		t.Fatal("draining server dropped the in-flight result")
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Cached entries survive the drain and stay servable.
	resp, env = postSweep(t, ts, tinyExchange)
	if resp.StatusCode != http.StatusOK || !env.Cached {
		t.Fatalf("post-drain cache read: HTTP %d cached=%v", resp.StatusCode, env.Cached)
	}
}

func TestHealthAndFigures(t *testing.T) {
	srv := New(Config{Logger: quiet})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/figures")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var figs []struct{ Name, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&figs); err != nil {
		t.Fatal(err)
	}
	if len(figs) < 15 {
		t.Fatalf("figure registry too small: %d", len(figs))
	}
}

func TestClientDisconnectKeepsComputationWarm(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		Logger: quiet,
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			close(started)
			<-release
			return blitzcoin.Execute(ctx, req)
		},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Fire a request with a context we cancel mid-computation.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(tinyExchange))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled client got a response")
	}
	close(release)

	// The detached computation still lands in the cache.
	deadline := time.After(10 * time.Second)
	for {
		if hits, _, _, entries, _ := srv.cache.stats(); entries == 1 && hits >= 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("abandoned computation never cached")
		case <-time.After(time.Millisecond):
		}
	}
	_, env := postSweep(t, ts, tinyExchange)
	if !env.Cached {
		t.Fatal("follow-up request missed the cache")
	}
}
