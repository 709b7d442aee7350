package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/store"
	"blitzcoin/internal/tenant"
)

// postSweepKey is postSweep with an API key attached.
func postSweepKey(t *testing.T, ts *httptest.Server, body, key string) (*http.Response, Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := ts.Client().Do(req)
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

// registry builds a test registry, failing the test on config errors.
func registry(t *testing.T, kf tenant.KeyFile) *tenant.Registry {
	t.Helper()
	reg, err := tenant.New(kf)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestAuthRequired(t *testing.T) {
	reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{{Name: "alice", Key: "alice-key"}}})
	srv := New(Config{Logger: quiet, Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postSweepKey(t, ts, tinyExchange, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless request: HTTP %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	resp, _ = postSweepKey(t, ts, tinyExchange, "wrong-key")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: HTTP %d, want 401", resp.StatusCode)
	}
	resp, env := postSweepKey(t, ts, tinyExchange, "alice-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good key: HTTP %d, want 200", resp.StatusCode)
	}
	if len(env.Result) == 0 {
		t.Fatal("empty result for authenticated sweep")
	}
	if n := reg.Unauthenticated(); n != 2 {
		t.Errorf("unauthenticated counter = %d, want 2", n)
	}
}

func TestAnonymousTierServesKeyless(t *testing.T) {
	reg := registry(t, tenant.KeyFile{
		Tenants:   []tenant.Config{{Name: "alice", Key: "alice-key"}},
		Anonymous: &tenant.Config{},
	})
	srv := New(Config{Logger: quiet, Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := postSweepKey(t, ts, tinyExchange, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("keyless request with anonymous tier: HTTP %d, want 200", resp.StatusCode)
	}
	// A wrong key is still a misconfigured client, not an anonymous one.
	resp, _ = postSweepKey(t, ts, tinyExchange, "wrong-key")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key with anonymous tier: HTTP %d, want 401", resp.StatusCode)
	}
}

// exchangeBody returns a distinct tiny request per seed, so tests can
// force fresh computations.
func exchangeBody(seed int) string {
	return fmt.Sprintf(`{"trials": 2, "exchange": {"dim": 4, "torus": true, "random_pairing": true, "seed": %d}}`, seed)
}

// wantRetryAfter asserts the response carries an integral Retry-After of
// at least one second.
func wantRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatalf("HTTP %d without Retry-After", resp.StatusCode)
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", h)
	}
}

// TestRetryAfterOnEveryRejection drives each 429 and 503 path the daemon
// has and asserts every one tells the client when to come back.
func TestRetryAfterOnEveryRejection(t *testing.T) {
	cases := []struct {
		name string
		want int
		do   func(t *testing.T) *http.Response
	}{
		{"rate limit", http.StatusTooManyRequests, func(t *testing.T) *http.Response {
			reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{
				{Name: "bob", Key: "k", RatePerSec: 0.0001, Burst: 1},
			}})
			ts := httptest.NewServer(New(Config{Logger: quiet, Tenants: reg}).Handler())
			defer ts.Close()
			if resp, _ := postSweepKey(t, ts, tinyExchange, "k"); resp.StatusCode != http.StatusOK {
				t.Fatalf("first request: HTTP %d", resp.StatusCode)
			}
			resp, _ := postSweepKey(t, ts, tinyExchange, "k")
			return resp
		}},
		{"byte quota", http.StatusTooManyRequests, func(t *testing.T) *http.Response {
			reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{
				{Name: "bob", Key: "k", QuotaBytes: 1},
			}})
			ts := httptest.NewServer(New(Config{Logger: quiet, Tenants: reg}).Handler())
			defer ts.Close()
			if resp, _ := postSweepKey(t, ts, tinyExchange, "k"); resp.StatusCode != http.StatusOK {
				t.Fatalf("first request: HTTP %d", resp.StatusCode)
			}
			resp, _ := postSweepKey(t, ts, tinyExchange, "k")
			return resp
		}},
		{"sweep quota", http.StatusTooManyRequests, func(t *testing.T) *http.Response {
			reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{
				{Name: "bob", Key: "k", QuotaSweeps: 1},
			}})
			ts := httptest.NewServer(New(Config{Logger: quiet, Tenants: reg}).Handler())
			defer ts.Close()
			if resp, _ := postSweepKey(t, ts, exchangeBody(1), "k"); resp.StatusCode != http.StatusOK {
				t.Fatalf("first sweep: HTTP %d", resp.StatusCode)
			}
			// The second *distinct* sweep needs a computation the quota no
			// longer covers; re-asking the first stays a free cache hit.
			if resp, _ := postSweepKey(t, ts, exchangeBody(1), "k"); resp.StatusCode != http.StatusOK {
				t.Fatalf("cached re-ask: HTTP %d, want 200 (hits are quota-exempt)", resp.StatusCode)
			}
			resp, _ := postSweepKey(t, ts, exchangeBody(2), "k")
			return resp
		}},
		{"drain sweep", http.StatusServiceUnavailable, func(t *testing.T) *http.Response {
			srv := New(Config{Logger: quiet})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			srv.BeginDrain()
			resp, _ := postSweepKey(t, ts, tinyExchange, "")
			return resp
		}},
		{"drain shard", http.StatusServiceUnavailable, func(t *testing.T) *http.Response {
			srv := New(Config{Logger: quiet})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			srv.BeginDrain()
			body := `{"request": ` + tinyExchange + `, "lo": 0, "hi": 1}`
			resp, err := ts.Client().Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}},
		{"drain stream", http.StatusServiceUnavailable, func(t *testing.T) *http.Response {
			srv := New(Config{Logger: quiet})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			srv.BeginDrain()
			resp, err := ts.Client().Get(ts.URL + "/v1/stream?hash=deadbeef")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp
		}},
		{"admission queue full", http.StatusServiceUnavailable, func(t *testing.T) *http.Response {
			_, ts, _ := saturatedServer(t, nil, "")
			resp, _ := postSweepKey(t, ts, exchangeBody(3), "")
			return resp
		}},
		{"admission queue full (shard)", http.StatusServiceUnavailable, func(t *testing.T) *http.Response {
			srv, ts, _ := saturatedServer(t, nil, "")
			resp, err := ts.Client().Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(tinyShard))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			// Shards carry no tenant: the shed is counted as a shard
			// request, not as the anonymous tenant's queue reject.
			metrics := serve(t, srv.Handler(), http.MethodGet, "/metrics", "", "", http.StatusOK).Body.String()
			for _, want := range []string{
				`blitzd_requests_total{kind="shard",status="unavailable"} 1`,
				`blitzd_tenant_rejects_total{tenant="anonymous",reason="queue"} 0`,
			} {
				if !strings.Contains(metrics, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
			return resp
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do(t)
			if resp.StatusCode != tc.want {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.want)
			}
			wantRetryAfter(t, resp)
		})
	}
}

// saturatedServer starts a server with one worker slot and a one-deep
// admission queue, and fills both with two sweeps sent under key (empty
// for keyless) whose computations block until release is called. release
// waits for both sweeps to finish; the test's cleanup calls it too.
func saturatedServer(t *testing.T, reg *tenant.Registry, key string) (srv *Server, ts *httptest.Server, release func()) {
	t.Helper()
	unblock := make(chan struct{})
	srv = New(Config{
		Logger:     quiet,
		Workers:    1,
		QueueDepth: 1,
		Tenants:    reg,
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			<-unblock
			return blitzcoin.Execute(ctx, req)
		},
	})
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	var wg sync.WaitGroup
	var once sync.Once
	release = func() {
		once.Do(func() { close(unblock) })
		wg.Wait()
	}
	t.Cleanup(release) // runs before ts.Close
	h := srv.Handler()
	for i := 1; i <= 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(exchangeBody(i)))
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), req)
		}()
	}
	waitFor(t, func() bool { return srv.pool.adm.QueueTotal() == 1 })
	return srv, ts, release
}

// TestShedSweepKeepsQuota: a sweep the admission queue sheds never ran, so
// it returns the sweep quota it reserved and is not counted as one of the
// tenant's sweeps, while the quota still bounds the sweeps that do run.
func TestShedSweepKeepsQuota(t *testing.T) {
	reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{
		{Name: "alice", Key: "alice-key"},
		{Name: "bob", Key: "bob-key", QuotaSweeps: 2},
	}})
	_, ts, release := saturatedServer(t, reg, "alice-key")
	for seed := 3; seed <= 4; seed++ {
		if resp, _ := postSweepKey(t, ts, exchangeBody(seed), "bob-key"); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("bob's sweep %d behind a full queue: HTTP %d, want 503", seed, resp.StatusCode)
		}
	}
	release()
	for seed := 3; seed <= 4; seed++ {
		if resp, _ := postSweepKey(t, ts, exchangeBody(seed), "bob-key"); resp.StatusCode != http.StatusOK {
			t.Fatalf("bob's sweep %d after the sheds: HTTP %d, want 200 (sheds use no quota)", seed, resp.StatusCode)
		}
	}
	if resp, _ := postSweepKey(t, ts, exchangeBody(5), "bob-key"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bob's third computed sweep: HTTP %d, want 429", resp.StatusCode)
	}
	for _, tn := range reg.Tenants() {
		if c := tn.Snapshot(); tn.Name == "bob" && (c.Sweeps != 2 || c.RejectedQueue != 2) {
			t.Errorf("bob: %d sweeps, %d queue rejects; want 2 and 2", c.Sweeps, c.RejectedQueue)
		}
	}
}

// TestNonPositivePhaseDurationRejected: a figure request with a phase
// duration at or below zero is refused with 400 at decode, before it takes
// a worker slot or a unit of the tenant's sweep quota.
func TestNonPositivePhaseDurationRejected(t *testing.T) {
	reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{{Name: "bob", Key: "bob-key", QuotaSweeps: 1}}})
	var runs atomic.Int64
	h := New(Config{Logger: quiet, Tenants: reg, Run: countingRun(&runs)}).Handler()
	for _, body := range []string{`{"figure":{"name":"21","tws_ms":[0]}}`, `{"figure":{"name":"1","ns":[5],"tws_ms":[0]}}`} {
		serve(t, h, http.MethodPost, "/v1/sweep", body, "bob-key", http.StatusBadRequest)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("%d computations for rejected requests", n)
	}
	if c := reg.Tenants()[0].Snapshot(); c.Sweeps != 0 {
		t.Fatalf("rejected requests counted %d sweeps", c.Sweeps)
	}
	// The one quota unit is still there for a valid request.
	serve(t, h, http.MethodPost, "/v1/sweep", `{"figure":{"name":"21","tws_ms":[1]}}`, "bob-key", http.StatusOK)
}

// TestThrottledTenantDoesNotStarveOthers is the isolation property the
// whole subsystem exists for: one tenant hitting its limits keeps being
// rejected while another tenant's requests keep succeeding.
func TestThrottledTenantDoesNotStarveOthers(t *testing.T) {
	reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{
		{Name: "alice", Key: "alice-key"},
		{Name: "bob", Key: "bob-key", RatePerSec: 0.0001, Burst: 1},
	}})
	srv := New(Config{Logger: quiet, Tenants: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := postSweepKey(t, ts, tinyExchange, "bob-key"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's first request: HTTP %d", resp.StatusCode)
	}
	for i := 0; i < 3; i++ {
		if resp, _ := postSweepKey(t, ts, tinyExchange, "bob-key"); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("bob over rate: HTTP %d, want 429", resp.StatusCode)
		}
		if resp, _ := postSweepKey(t, ts, tinyExchange, "alice-key"); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice while bob throttled: HTTP %d, want 200", resp.StatusCode)
		}
	}
}

// TestStoreServesAcrossRestart is the durability acceptance test: a
// result computed before a restart is served byte-identically after it,
// from disk, with zero engine executions.
func TestStoreServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(t.TempDir(), "ledger.jsonl")

	st1, err := store.Open(dir, blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	led1, err := ledger.Open(ledgerPath, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Logger: quiet, Store: st1, Ledger: led1})
	ts1 := httptest.NewServer(srv1.Handler())
	resp, first := postSweep(t, ts1, tinyExchange)
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("first serve: HTTP %d cached=%v", resp.StatusCode, first.Cached)
	}
	firstSHA, err := blitzcoin.CanonicalResultSHA(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	st1.Close()
	if err := led1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store over the same directory, fresh server whose
	// engine counts executions — the count must stay zero.
	var executions int64
	var mu sync.Mutex
	st2, err := store.Open(dir, blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := New(Config{
		Logger: quiet,
		Store:  st2,
		Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
			mu.Lock()
			executions++
			mu.Unlock()
			return blitzcoin.Execute(ctx, req)
		},
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	resp, second := postSweep(t, ts2, tinyExchange)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart serve: HTTP %d", resp.StatusCode)
	}
	if !second.Cached || second.Tier != "disk" {
		t.Fatalf("post-restart serve: cached=%v tier=%q, want a disk hit", second.Cached, second.Tier)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatal("post-restart result differs from the pre-restart bytes")
	}
	if second.RequestHash != first.RequestHash {
		t.Fatalf("options hash changed across restart: %s -> %s", first.RequestHash, second.RequestHash)
	}
	secondSHA, err := blitzcoin.CanonicalResultSHA(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if secondSHA != firstSHA {
		t.Fatalf("canonical result SHA changed across restart: %s -> %s", firstSHA, secondSHA)
	}
	mu.Lock()
	n := executions
	mu.Unlock()
	if n != 0 {
		t.Fatalf("%d engine executions after restart, want 0 (disk should serve)", n)
	}

	// A memory re-ask now hits the promoted in-memory copy.
	_, third := postSweep(t, ts2, tinyExchange)
	if third.Tier != "memory" {
		t.Errorf("re-ask tier = %q, want memory (disk hit should promote)", third.Tier)
	}
}

func TestMetricsExposeTenantsStoreAndAdmission(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := registry(t, tenant.KeyFile{Tenants: []tenant.Config{
		{Name: "alice", Key: "alice-key"},
		{Name: "bob", Key: "bob-key", RatePerSec: 0.0001, Burst: 1},
	}})
	srv := New(Config{Logger: quiet, Tenants: reg, Store: st})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postSweepKey(t, ts, tinyExchange, "alice-key") // compute + store write
	postSweepKey(t, ts, tinyExchange, "alice-key") // memory hit
	postSweepKey(t, ts, tinyExchange, "bob-key")   // bob's one token
	postSweepKey(t, ts, tinyExchange, "bob-key")   // rate-limited
	postSweepKey(t, ts, tinyExchange, "")          // 401

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`blitzd_tenant_requests_total{tenant="alice"} 2`,
		`blitzd_tenant_cache_hits_total{tenant="alice"} 1`,
		`blitzd_tenant_sweeps_total{tenant="alice"} 1`,
		`blitzd_tenant_rejects_total{tenant="bob",reason="rate"} 1`,
		`blitzd_unauthenticated_total 1`,
		`blitzd_admission_queue_depth{class="interactive"} 0`,
		`blitzd_admission_queue_depth{class="batch"} 0`,
		`blitzd_store_writes_total 1`,
		`blitzd_store_entries 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShardServedFromSharedStore covers the cluster-facing half of the
// disk tier: a shard computed by one server life is served from the store
// by the next without re-execution.
func TestShardServedFromSharedStore(t *testing.T) {
	dir := t.TempDir()
	postShardTo := func(ts *httptest.Server) ShardResponse {
		t.Helper()
		body := `{"request": ` + tinyExchange + `, "lo": 0, "hi": 2}`
		resp, err := ts.Client().Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard: HTTP %d: %s", resp.StatusCode, raw)
		}
		var env ShardResponse
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		return env
	}

	st1, err := store.Open(dir, blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Logger: quiet, Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())
	first := postShardTo(ts1)
	if first.Cached {
		t.Fatal("first shard claims cached")
	}
	ts1.Close()
	st1.Close()

	st2, err := store.Open(dir, blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := New(Config{Logger: quiet, Store: st2})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	second := postShardTo(ts2)
	if !second.Cached {
		t.Fatal("restarted worker re-executed a stored shard")
	}
	if !bytes.Equal(second.Shard, first.Shard) {
		t.Fatal("stored shard bytes differ across restart")
	}
}
