package server

import (
	"fmt"
	"net/http"
	"testing"
)

// BenchmarkSweepMiss measures one POST /v1/sweep that misses both tiers
// on the golden's configured server: every iteration asks a distinct seed,
// so it computes, renders, stores and ledgers a fresh result.
func BenchmarkSweepMiss(b *testing.B) {
	h := goldenServer(b).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(b, h, http.MethodPost, "/v1/sweep", exchangeBody(1000+i), "alice-key", http.StatusOK)
	}
}

// BenchmarkShardMiss measures one POST /v1/shard that misses both tiers
// on the golden's configured server: every iteration asks a distinct seed,
// so it computes, renders and stores a fresh shard.
func BenchmarkShardMiss(b *testing.B) {
	h := goldenServer(b).Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"request": %s, "lo": 0, "hi": 1}`, exchangeBody(1000+i))
		serve(b, h, http.MethodPost, "/v1/shard", body, "", http.StatusOK)
	}
}
