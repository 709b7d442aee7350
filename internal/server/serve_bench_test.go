package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"blitzcoin"
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

// BenchmarkCoalescedFollower measures one POST /v1/sweep that joins a
// computation already in flight, reported per follower. Each batch asks a
// fresh seed: its leader computes with the timer stopped, then holds in a
// gate until every follower of the batch has joined its flight. The timed
// part is the followers' own path (decode, hash, cache miss, flight join,
// wake-up, envelope write) plus the one memory-tier put of the leader they
// all wait on. The server has no disk tier or ledger, whose fsyncs the
// followers would otherwise wait on too.
func BenchmarkCoalescedFollower(b *testing.B) {
	const batch = 8
	entered, gate := make(chan struct{}), make(chan struct{})
	srv := New(Config{Logger: quiet, Workers: 2, Run: func(ctx context.Context, req blitzcoin.Request) (*blitzcoin.Result, error) {
		res, err := blitzcoin.Execute(ctx, req)
		entered <- struct{}{}
		<-gate
		return res, err
	}})
	h := srv.Handler()
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		return rec.Code
	}
	codes := make([]int, batch+1)
	b.ReportAllocs()
	b.ResetTimer()
	for done, seed := 0, 1000; done < b.N; seed++ {
		n := min(batch, b.N-done)
		body := exchangeBody(seed)
		b.StopTimer()
		var leader, followers sync.WaitGroup
		leader.Add(1)
		go func() { defer leader.Done(); codes[n] = post(body) }()
		<-entered
		joined := srv.metrics.coalesced.Load() + uint64(n)
		b.StartTimer()
		for i := 0; i < n; i++ {
			followers.Add(1)
			go func(i int) { defer followers.Done(); codes[i] = post(body) }(i)
		}
		for srv.metrics.coalesced.Load() < joined {
			runtime.Gosched()
		}
		gate <- struct{}{}
		followers.Wait()
		b.StopTimer()
		leader.Wait()
		for i, code := range codes[:n+1] {
			if code != http.StatusOK {
				b.Fatalf("seed %d, request %d: HTTP %d", seed, i, code)
			}
		}
		b.StartTimer()
		done += n
	}
}
