package server

import (
	"context"
	"sync"
)

// flight is one in-progress computation shared by every request that asked
// for the same canonical hash while it ran. done closes when bytes/err are
// final.
//
// Shard flights (leaseShard) additionally carry a cancellable context and
// a waiter count: when every attached request has abandoned the flight —
// a speculation race was lost, or the coordinator cancelled the sweep —
// the computation itself is cancelled so the worker slot frees up, instead
// of burning a pool slot on rows nobody will read. Sweep flights (lease)
// keep the opposite policy: they run detached so the result still lands
// in the cache for the next asker.
type flight struct {
	done  chan struct{}
	bytes []byte
	err   error

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

// lease returns the flight for key and whether the caller is its leader.
// The leader must call complete exactly once. The computation is
// detached: it cannot be cancelled by departing waiters.
func (g *flightGroup) lease(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// leaseShard is lease for cancellable shard computations: the returned
// flight carries a context derived from base that abandon cancels once
// the last waiter departs. Every caller must call abandon exactly once if
// it stops waiting before the flight completes. A flight every waiter has
// left is being cancelled, so a new request leads a fresh flight instead
// of inheriting that cancellation.
func (g *flightGroup) leaseShard(key string, base context.Context) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok && f.waiters > 0 {
		f.waiters++
		return f, false
	}
	ctx, cancel := context.WithCancel(base)
	f := &flight{done: make(chan struct{}), ctx: ctx, cancel: cancel, waiters: 1}
	g.m[key] = f
	return f, true
}

// abandon detaches one waiter from a shard flight; the last departure
// cancels the computation.
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
func (g *flightGroup) complete(key string, f *flight, b []byte, err error) {
	f.bytes, f.err = b, err
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
