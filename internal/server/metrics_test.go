package server

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"blitzcoin"
	"blitzcoin/internal/ledger"
	"blitzcoin/internal/store"
	"blitzcoin/internal/tenant"
	"blitzcoin/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// oddTenant is a tenant name with both characters a label value must
// escape in the text format.
const oddTenant = `bo"b\`

// goldenServer builds the fully configured server the exposition golden
// pins: two keyed tenants (one named oddTenant, rate-limited to a single
// request), a one-entry memory cache over a disk store, an in-memory
// ledger, a private trace bus, and a cluster backend.
func goldenServer(tb testing.TB) *Server {
	tb.Helper()
	st, err := store.Open(tb.TempDir(), blitzcoin.EngineVersion, 0, quiet)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(st.Close)
	// The boot scan of the empty directory finishes at once; wait for it
	// so blitzd_store_warmed reads the same on every run.
	for deadline := time.Now().Add(5 * time.Second); !st.Stats().Warmed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatal("store never finished warming")
		}
	}
	led, err := ledger.Open("", 0)
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := tenant.New(tenant.KeyFile{Tenants: []tenant.Config{
		{Name: "alice", Key: "alice-key"},
		{Name: oddTenant, Key: "bob-key", RatePerSec: 0.0001, Burst: 1},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return New(Config{
		Logger:       quiet,
		Workers:      2,
		CacheEntries: 1,
		Tenants:      reg,
		Store:        st,
		Ledger:       led,
		Bus:          trace.NewBus(),
		Cluster:      fakeCluster{},
	})
}

// serve runs one request through h in-process and checks its status.
func serve(tb testing.TB, h http.Handler, method, path, body, key string, want int) *httptest.ResponseRecorder {
	tb.Helper()
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != want {
		tb.Fatalf("%s %s: HTTP %d, want %d: %s", method, path, rec.Code, want, rec.Body)
	}
	return rec
}

// goldenScript drives the fixed request script behind the golden: a shard
// and two sweeps computed, a memory hit, a disk hit, a 400, a 401, a 429,
// a stream subscription to a cached hash, and the health and cluster
// endpoints.
func goldenScript(tb testing.TB, h http.Handler) {
	tb.Helper()
	other := exchangeBody(7)
	serve(tb, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusOK)
	serve(tb, h, http.MethodPost, "/v1/sweep", tinyExchange, "alice-key", http.StatusOK) // computed
	serve(tb, h, http.MethodPost, "/v1/sweep", tinyExchange, "alice-key", http.StatusOK) // memory hit
	serve(tb, h, http.MethodPost, "/v1/sweep", `{`, "alice-key", http.StatusBadRequest)
	serve(tb, h, http.MethodPost, "/v1/sweep", tinyExchange, "", http.StatusUnauthorized)
	serve(tb, h, http.MethodPost, "/v1/sweep", other, "bob-key", http.StatusOK) // computed, evicts tinyExchange
	serve(tb, h, http.MethodPost, "/v1/sweep", other, "bob-key", http.StatusTooManyRequests)
	serve(tb, h, http.MethodPost, "/v1/sweep", tinyExchange, "alice-key", http.StatusOK) // disk hit
	hash := hashOf(tb, tinyExchange)
	serve(tb, h, http.MethodGet, "/v1/stream?hash="+hash, "", "alice-key", http.StatusOK)
	serve(tb, h, http.MethodGet, "/healthz", "", "", http.StatusOK)
	serve(tb, h, http.MethodGet, "/v1/cluster/status", "", "", http.StatusOK)
}

// timingSample matches the sample lines whose values are wall-clock
// measurements: the latency summary's sum and every finite bucket and sum
// of the two latency histograms. The +Inf buckets and counts stay exact.
var timingSample = regexp.MustCompile(`^(blitzd_request_seconds_sum|blitzd_(request_duration|ledger_append)_seconds_(bucket\{.*le="[^+][^"]*"\}|sum)(\{[^}]*\})?) \S+$`)

// maskTimings replaces the value of every timing sample with "*".
func maskTimings(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if m := timingSample.FindStringSubmatch(l); m != nil {
			lines[i] = m[1] + " *"
		}
	}
	return strings.Join(lines, "\n")
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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

// TestMetricsGolden pins the whole /metrics exposition of a fully
// configured server after a fixed request script, timing values masked.
func TestMetricsGolden(t *testing.T) {
	h := goldenServer(t).Handler()
	goldenScript(t, h)
	rec := serve(t, h, http.MethodGet, "/metrics", "", "", http.StatusOK)
	checkGolden(t, "metrics.golden", maskTimings(rec.Body.String()))
}

// BenchmarkMetricsScrape measures one GET /metrics on the golden's
// configured server.
func BenchmarkMetricsScrape(b *testing.B) {
	h := goldenServer(b).Handler()
	goldenScript(b, h)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("scrape: HTTP %d", rec.Code)
		}
	}
}

// BenchmarkMemoryHit measures one POST /v1/sweep served from the memory
// tier.
func BenchmarkMemoryHit(b *testing.B) {
	h := New(Config{Logger: quiet}).Handler()
	serve(b, h, http.MethodPost, "/v1/sweep", tinyExchange, "", http.StatusOK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, http.MethodPost, "/v1/sweep", tinyExchange, "", http.StatusOK)
	}
}

// BenchmarkDiskHit measures one POST /v1/sweep served from the disk tier
// on the golden's configured server: two results alternate through its
// one-entry memory tier, so every ask reads, verifies and promotes a blob.
func BenchmarkDiskHit(b *testing.B) {
	srv := goldenServer(b)
	h := srv.Handler()
	bodies := [2]string{tinyExchange, exchangeBody(7)}
	for _, body := range bodies {
		serve(b, h, http.MethodPost, "/v1/sweep", body, "alice-key", http.StatusOK)
	}
	hits := srv.cache.disk.Stats().Hits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, http.MethodPost, "/v1/sweep", bodies[i%2], "alice-key", http.StatusOK)
	}
	b.StopTimer()
	if got := srv.cache.disk.Stats().Hits - hits; got != uint64(b.N) {
		b.Fatalf("%d disk hits in %d requests", got, b.N)
	}
}

// BenchmarkShardHit measures one POST /v1/shard served from the memory
// tier on the golden's configured server.
func BenchmarkShardHit(b *testing.B) {
	h := goldenServer(b).Handler()
	serve(b, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusOK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, http.MethodPost, "/v1/shard", tinyShard, "", http.StatusOK)
	}
}
