package server

import (
	"context"
	"sync"
)

// flight is one in-progress computation shared by every request that asked
// for the same key while it ran. done closes when res/err are final; res is
// the rendered result, so the leader and every follower write it without
// rendering again.
//
// A flight runs under ctx and counts its waiters. What happens when every
// waiter has left is the flight's policy, chosen at lease: a detached
// flight (sweeps) runs on, so the result still lands in the cache for the
// next asker; a cancellable flight (shards) is cancelled, so the worker
// slot frees up instead of burning on rows nobody will read — the
// coordinator cancels the losing copy of every speculation race, and the
// winner already produced those rows byte-identically.
type flight struct {
	done chan struct{}
	res  rendered
	err  error

	ctx     context.Context
	cancel  context.CancelFunc
	waiters int
}

// flightGroup coalesces concurrent identical requests: the first caller
// for a key becomes the leader and computes; everyone else waits on the
// leader's flight. This is the singleflight pattern, hand-rolled because
// the repo is stdlib-only.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// flightPolicy decides what happens to a flight every waiter has left.
type flightPolicy bool

const (
	// detached flights run to completion under the lease's context.
	detached flightPolicy = false
	// cancellable flights are cancelled with their last waiter.
	cancellable flightPolicy = true
)

// lease returns the flight for key and whether the caller is its leader.
// The leader runs the computation under the flight's ctx, derived from
// base, and must call complete exactly once. Every caller must call
// abandon exactly once if it stops waiting before the flight completes. A
// cancellable flight every waiter has left is being cancelled, so a new
// request leads a fresh flight instead of inheriting that cancellation.
func (g *flightGroup) lease(key string, base context.Context, policy flightPolicy) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok && (f.cancel == nil || f.waiters > 0) {
		f.waiters++
		return f, false
	}
	f := &flight{done: make(chan struct{}), ctx: base, waiters: 1}
	if policy == cancellable {
		f.ctx, f.cancel = context.WithCancel(base)
	}
	g.m[key] = f
	return f, true
}

// abandon detaches one waiter from a flight; the last departure cancels
// a cancellable flight's computation.
func (g *flightGroup) abandon(f *flight) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters <= 0
	g.mu.Unlock()
	if last && f.cancel != nil {
		f.cancel()
	}
}

// active reports whether any flight is computing for the canonical hash:
// the sweep flight keyed by the hash itself, or any shard flight keyed by
// the hash extended with a trial range. The SSE drain path uses it to
// decide whether a subscriber still has a completion to wait for.
func (g *flightGroup) active(hash string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.m[hash]; ok {
		return true
	}
	for k := range g.m {
		if len(k) > len(hash) && k[:len(hash)] == hash && k[len(hash)] == ':' {
			return true
		}
	}
	return false
}

// complete publishes the leader's outcome and retires the flight: later
// requests for the key start fresh (and will hit the cache instead). An
// abandoned flight may already have been replaced; the replacement stays.
func (g *flightGroup) complete(key string, f *flight, res rendered, err error) {
	f.res, f.err = res, err
	g.mu.Lock()
	if g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	if f.cancel != nil {
		f.cancel()
	}
	close(f.done)
}
