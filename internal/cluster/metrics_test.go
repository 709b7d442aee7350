package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// completeShards feeds fake completions with the given service times
// through a scheduler, as if each shard's only copy finished on url.
// Nothing dispatches the shards, so they also stay counted as queued.
func completeShards(t *testing.T, c *Coordinator, url string, times ...time.Duration) {
	t.Helper()
	req := clusterTestRequests()["fig7"].Normalized()
	hash, err := req.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([]shardRange, len(times))
	for i := range ranges {
		ranges[i] = shardRange{i, i + 1}
	}
	s := newSched(context.Background(), c, req, hash, ranges)
	defer s.cancel()
	for i, d := range times {
		st := s.states[i]
		st.copies[1] = &copyInfo{url: url, cancel: func() {}}
		s.complete(st, 1, url, &blitzcoin.ShardResult{Lo: i, Hi: i + 1}, nil, d, false)
	}
}

// TestCoordinatorMetricsGolden pins the cluster section of /metrics for a
// coordinator with two static workers after four fake shard completions
// and one steal. The heartbeat is slowed past the test's lifetime so no
// probe can change worker liveness mid-test.
func TestCoordinatorMetricsGolden(t *testing.T) {
	c := newCoordinator(t, blitzcoin.ClusterOptions{
		Workers:         []string{"http://w1", "http://w2"},
		HeartbeatMillis: 3_600_000,
	})
	completeShards(t, c, "http://w1", 3*time.Millisecond, 8*time.Millisecond, 40*time.Millisecond, 700*time.Millisecond)
	c.registry.addSteal("http://w2")

	got := scrapeCluster(t, c)
	path := filepath.Join("testdata", "coordinator_metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden (rerun with -update after a deliberate change)\n--- got\n%s", path, got)
	}
}

// scrapeCluster renders the coordinator's /metrics section.
func scrapeCluster(t *testing.T, c *Coordinator) string {
	t.Helper()
	var b bytes.Buffer
	mw := metrics.NewWriter(&b)
	c.WriteMetrics(mw)
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardLatencyHistogram checks the latency family after known
// completions: the count is exact, and the status p50 lands in the
// bucket that holds the true median.
func TestShardLatencyHistogram(t *testing.T) {
	c := newCoordinator(t, blitzcoin.ClusterOptions{
		Workers:         []string{"http://w1"},
		HeartbeatMillis: 3_600_000,
	})
	// Nine completions with a true median of 20 ms, inside (10 ms, 25 ms].
	completeShards(t, c, "http://w1",
		2*time.Millisecond, 3*time.Millisecond, 7*time.Millisecond, 12*time.Millisecond, 20*time.Millisecond,
		30*time.Millisecond, 45*time.Millisecond, 80*time.Millisecond, 150*time.Millisecond)

	if text := scrapeCluster(t, c); !strings.Contains(text, "\nblitzd_cluster_shard_latency_seconds_count 9\n") {
		t.Errorf("latency histogram count is not 9:\n%s", text)
	}
	rec := httptest.NewRecorder()
	c.HandleStatus(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
	var body StatusBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if p50 := body.ShardLatencyP50Millis; p50 <= 10 || p50 > 25 {
		t.Errorf("status p50 = %v ms, want inside the (10, 25] ms bucket holding the median", p50)
	}
	if p99 := body.ShardLatencyP99Millis; p99 <= 100 || p99 > 250 {
		t.Errorf("status p99 = %v ms, want inside the (100, 250] ms bucket holding the maximum", p99)
	}
}

// TestJoinedWorkerLabelKeepsRawTab: a worker URL with a tab arrives
// through POST /v1/cluster/join and appears in its label with the tab
// raw, since the text format defines no \t escape.
func TestJoinedWorkerLabelKeepsRawTab(t *testing.T) {
	c := newCoordinator(t, blitzcoin.ClusterOptions{HeartbeatMillis: 3_600_000})
	rec := httptest.NewRecorder()
	c.HandleJoin(rec, httptest.NewRequest(http.MethodPost, "/v1/cluster/join", strings.NewReader(`{"url": "http://w\t1"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("join: HTTP %d: %s", rec.Code, rec.Body)
	}
	text := scrapeCluster(t, c)
	if want := "blitzd_cluster_worker_up{worker=\"http://w\t1\"} 1\n"; !strings.Contains(text, want) {
		t.Errorf("metrics missing %q:\n%s", want, text)
	}
	if strings.Contains(text, `\t`) {
		t.Errorf("metrics carry an undefined \\t escape:\n%s", text)
	}
}
