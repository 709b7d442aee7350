package server

import (
	"context"
	"sync"
	"sync/atomic"

	"blitzcoin/internal/tenant"
)

// pool bounds how many sweep computations run at once. Admission is a
// priority controller from the tenant package: each class (interactive,
// batch) has its own bounded wait queue, releases grant interactive
// waiters first, and a class at its queue bound rejects immediately
// (surfaced as 503 + Retry-After) instead of growing an unbounded
// backlog. queued and busy are exported as gauges so /metrics shows
// back-pressure building before latency does.
type pool struct {
	adm  *tenant.Admission
	busy atomic.Int64
	wg   sync.WaitGroup
}

func newPool(workers, queueBound int) *pool {
	if workers < 1 {
		workers = 1
	}
	if queueBound < 1 {
		queueBound = 1
	}
	return &pool{adm: tenant.NewAdmission(workers, queueBound)}
}

// acquire blocks until a worker slot frees or ctx ends; a class queue at
// its bound fails fast with tenant.ErrQueueFull.
func (p *pool) acquire(ctx context.Context, class tenant.Class) error {
	if err := p.adm.Acquire(ctx, class); err != nil {
		return err
	}
	p.busy.Add(1)
	return nil
}

// release frees the slot taken by acquire.
func (p *pool) release() {
	p.busy.Add(-1)
	p.adm.Release()
}

// track registers a computation goroutine for drain.
func (p *pool) track() func() {
	p.wg.Add(1)
	return p.wg.Done
}

// drain waits until every tracked computation finished or ctx ends.
func (p *pool) drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
