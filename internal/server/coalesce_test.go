package server

import (
	"context"
	"testing"
)

// TestShardFlightAbandonedIsNotJoined: once the last waiter abandons a
// shard flight its computation is being cancelled, so a request arriving
// before that computation returns leads a fresh flight instead of
// inheriting the cancellation (a spurious 503 "context canceled" that
// stalled speculative copies on the cluster), and the abandoned flight's
// completion leaves the fresh one in place.
func TestShardFlightAbandonedIsNotJoined(t *testing.T) {
	g := newFlightGroup()
	old, leader := g.leaseShard("k", context.Background())
	if !leader {
		t.Fatal("first lease is not the leader")
	}
	g.abandon(old)

	fresh, leader := g.leaseShard("k", context.Background())
	if !leader || fresh == old || fresh.ctx.Err() != nil {
		t.Fatal("a new request joined the abandoned, cancelled flight")
	}
	g.complete("k", old, nil, old.ctx.Err())
	if f, leader := g.leaseShard("k", context.Background()); leader || f != fresh {
		t.Fatal("the abandoned flight's completion retired the fresh flight")
	}
}
