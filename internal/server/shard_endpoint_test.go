package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blitzcoin"
	"blitzcoin/internal/metrics"
)

func postShard(t *testing.T, ts *httptest.Server, body string) (*http.Response, ShardResponse) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/shard", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ShardResponse
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("bad shard envelope %q: %v", raw, err)
		}
	}
	return resp, env
}

const tinyShard = `{"request": ` + tinyExchange + `, "lo": 0, "hi": 1}`

func TestShardEndpointMatchesLocalExecution(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, env := postShard(t, ts, tinyShard)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if env.Kind != "exchange" || env.Lo != 0 || env.Hi != 1 || env.Cached {
		t.Fatalf("envelope = %+v", env)
	}

	var req blitzcoin.Request
	if err := json.Unmarshal([]byte(tinyExchange), &req); err != nil {
		t.Fatal(err)
	}
	want, err := blitzcoin.ExecuteShard(context.Background(), req, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	// Decode the wire payload the way the coordinator does (the envelope
	// encoder re-indents embedded JSON, so compare canonical marshals).
	var got blitzcoin.ShardResult
	if err := json.Unmarshal(env.Shard, &got); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("shard bytes differ\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
}

func TestShardEndpointCachesPerRange(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := postShard(t, ts, tinyShard)
	_, second := postShard(t, ts, tinyShard)
	if !second.Cached {
		t.Error("repeat of the same range should be served from cache")
	}
	if string(first.Shard) != string(second.Shard) {
		t.Error("cached shard bytes differ")
	}
	_, other := postShard(t, ts, `{"request": `+tinyExchange+`, "lo": 1, "hi": 2}`)
	if other.Cached {
		t.Error("a different range must not hit the first range's cache entry")
	}
}

func TestShardEndpointValidation(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := map[string]struct {
		body string
		want int
	}{
		"range outside units": {`{"request": ` + tinyExchange + `, "lo": 0, "hi": 99}`, http.StatusBadRequest},
		"empty range":         {`{"request": ` + tinyExchange + `, "lo": 1, "hi": 1}`, http.StatusBadRequest},
		"invalid request":     {`{"request": {}, "lo": 0, "hi": 1}`, http.StatusBadRequest},
		"unknown field":       {`{"request": ` + tinyExchange + `, "lo": 0, "hi": 1, "bogus": 1}`, http.StatusBadRequest},
		"hash mismatch":       {`{"request": ` + tinyExchange + `, "lo": 0, "hi": 1, "options_hash": "deadbeef"}`, http.StatusConflict},
	}
	for name, tc := range cases {
		resp, _ := postShard(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/shard")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestDrainSetsRetryAfter checks the drain contract on both compute
// endpoints: refused requests carry a Retry-After hint, while cached
// results are still served.
func TestDrainSetsRetryAfter(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the caches, then drain.
	if resp, _ := postSweep(t, ts, tinyExchange); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep: %d", resp.StatusCode)
	}
	if resp, _ := postShard(t, ts, tinyShard); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm shard: %d", resp.StatusCode)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	uncachedSweep := `{"trials": 2, "exchange": {"dim": 4, "torus": true, "random_pairing": true, "seed": 77}}`
	resp, _ := postSweep(t, ts, uncachedSweep)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining sweep: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining sweep: missing Retry-After header")
	}
	resp, _ = postShard(t, ts, `{"request": `+uncachedSweep+`, "lo": 0, "hi": 1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining shard: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining shard: missing Retry-After header")
	}

	// Cached results are still served while draining.
	if resp, env := postSweep(t, ts, tinyExchange); resp.StatusCode != http.StatusOK || !env.Cached {
		t.Errorf("draining cached sweep: status %d cached %v", resp.StatusCode, env.Cached)
	}
	if resp, env := postShard(t, ts, tinyShard); resp.StatusCode != http.StatusOK || !env.Cached {
		t.Errorf("draining cached shard: status %d cached %v", resp.StatusCode, env.Cached)
	}
}

// TestRequestDurationHistogram checks the per-endpoint histogram appears
// in /metrics with coherent bucket counts.
func TestRequestDurationHistogram(t *testing.T) {
	srv := New(Config{Logger: quiet, Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postSweep(t, ts, tinyExchange)
	if _, err := ts.Client().Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE blitzd_request_duration_seconds histogram",
		`blitzd_request_duration_seconds_bucket{endpoint="sweep",le="+Inf"} 1`,
		`blitzd_request_duration_seconds_bucket{endpoint="healthz",le="+Inf"} 1`,
		`blitzd_request_duration_seconds_count{endpoint="sweep"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// fakeCluster is a minimal ClusterBackend for mount-plumbing tests.
type fakeCluster struct{}

func (fakeCluster) HandleJoin(w http.ResponseWriter, r *http.Request)   { w.WriteHeader(http.StatusOK) }
func (fakeCluster) HandleStatus(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }
func (fakeCluster) Readiness() ClusterReadiness {
	return ClusterReadiness{Ready: true, AliveWorkers: 1}
}
func (fakeCluster) WriteMetrics(w *metrics.Writer) {
	w.Gauge("blitzd_cluster_fake_metric", "A fixed cluster-section sample.", 1)
}

func TestClusterBackendMounting(t *testing.T) {
	// Without a backend the cluster endpoints don't exist.
	bare := httptest.NewServer(New(Config{Logger: quiet}).Handler())
	defer bare.Close()
	resp, err := bare.Client().Get(bare.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bare status: %d, want 404", resp.StatusCode)
	}

	// With a backend they are routed and /metrics folds the cluster section.
	ts := httptest.NewServer(New(Config{Logger: quiet, Cluster: fakeCluster{}}).Handler())
	defer ts.Close()
	resp, err = ts.Client().Get(ts.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mounted status: %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/cluster/join", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mounted join: %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "blitzd_cluster_fake_metric 1") {
		t.Error("metrics missing the cluster section")
	}
}
