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
	old, leader := g.lease("k", context.Background(), cancellable)
	if !leader {
		t.Fatal("first lease is not the leader")
	}
	g.abandon(old)

	fresh, leader := g.lease("k", context.Background(), cancellable)
	if !leader || fresh == old || fresh.ctx.Err() != nil {
		t.Fatal("a new request joined the abandoned, cancelled flight")
	}
	g.complete("k", old, rendered{}, old.ctx.Err())
	if f, leader := g.lease("k", context.Background(), cancellable); leader || f != fresh {
		t.Fatal("the abandoned flight's completion retired the fresh flight")
	}
}

// TestDetachedFlightOutlivesItsWaiters: a detached flight that every
// waiter has left keeps its context and is still joined, so a later
// request shares the running computation instead of starting another.
func TestDetachedFlightOutlivesItsWaiters(t *testing.T) {
	g := newFlightGroup()
	f, leader := g.lease("k", context.Background(), detached)
	if !leader {
		t.Fatal("first lease is not the leader")
	}
	g.abandon(f)
	if f.ctx.Err() != nil {
		t.Fatal("the last waiter's departure cancelled a detached flight")
	}
	if again, leader := g.lease("k", context.Background(), detached); leader || again != f {
		t.Fatal("a new request did not join the running detached flight")
	}
}
