package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"blitzcoin"
	"blitzcoin/internal/trace"
)

// schedTick bounds how long the dispatch loop sleeps between scans when
// no completion wakes it: backoff expiries, newly joined workers, and
// straggler checks are all noticed within one tick.
const schedTick = 5 * time.Millisecond

// copyInfo is one dispatched copy of a shard (the original attempt or a
// speculative re-execution).
type copyInfo struct {
	url         string
	speculative bool
	cancel      context.CancelFunc
}

// shardState tracks one planned shard through the scheduler: queued,
// running (possibly as two copies once speculated), or done. All fields
// are guarded by the owning sched's mutex.
type shardState struct {
	idx int
	sr  shardRange
	// attempts counts failed dispatch attempts; the shard fails the sweep
	// once it reaches MaxAttempts with no copy still running.
	attempts int
	// lastWorker is the worker of the most recent failed attempt; a retry
	// landing elsewhere counts as a steal.
	lastWorker string
	// notBefore gates re-dispatch after a failure (full-jitter backoff).
	notBefore time.Time
	// started is when the oldest currently-running copy was launched;
	// straggler detection measures from here.
	started time.Time
	// speculated is set once a second copy has been launched; at most two
	// copies of a shard ever run.
	speculated bool
	done       bool
	copies     map[int]*copyInfo
}

// sched runs one sweep: a work-queue of fine-grained shards that idle
// workers pull from, plus speculative re-execution of stragglers.
// Completion is first-result-wins — the losing copy is cancelled and any
// duplicate or late completion is discarded idempotently, which is safe
// because shard rows are byte-identical wherever they run.
type sched struct {
	c      *Coordinator
	ctx    context.Context
	cancel context.CancelFunc
	norm   blitzcoin.Request
	hash   string
	// st publishes shard dispatch/completion events on the coordinator's
	// bus (zero value inert). Set by Coordinator.Run after newSched.
	st trace.Stream

	mu        sync.Mutex
	states    []*shardState
	pending   []int // indices of shards waiting for a worker slot, FIFO
	results   []*blitzcoin.ShardResult
	remaining int
	firstErr  error
	// latencies holds this sweep's completed-shard service times
	// (seconds); the speculation threshold is a percentile of these.
	latencies []float64
	copySeq   int
	// noLiveSince marks when dispatch first found no live worker at all;
	// the sweep only fails once that has persisted past noLiveGrace, so a
	// momentary blip (a missed probe, the instant between a death and the
	// heartbeat reviving a peer) doesn't kill the whole sweep.
	noLiveSince time.Time

	wake chan struct{}
}

func newSched(ctx context.Context, c *Coordinator, norm blitzcoin.Request, hash string, ranges []shardRange) *sched {
	ctx, cancel := context.WithCancel(ctx)
	s := &sched{
		c:         c,
		ctx:       ctx,
		cancel:    cancel,
		norm:      norm,
		hash:      hash,
		states:    make([]*shardState, len(ranges)),
		results:   make([]*blitzcoin.ShardResult, len(ranges)),
		remaining: len(ranges),
		wake:      make(chan struct{}, 1),
	}
	for i, sr := range ranges {
		s.states[i] = &shardState{idx: i, sr: sr, copies: make(map[int]*copyInfo)}
		s.pending = append(s.pending, i)
	}
	c.queueDepth.Add(int64(len(s.pending)))
	return s
}

// signal wakes the dispatch loop without blocking.
func (s *sched) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run drives the sweep to completion and returns the shard results in
// index order. On any failure the remaining copies are cancelled; losers
// observe done/cancellation and release their worker slots on their own.
func (s *sched) run() ([]*blitzcoin.ShardResult, error) {
	defer func() {
		s.cancel()
		s.mu.Lock()
		s.c.queueDepth.Add(int64(-len(s.pending)))
		s.pending = nil
		s.mu.Unlock()
	}()
	ticker := time.NewTicker(schedTick)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		if s.firstErr != nil {
			err := s.firstErr
			s.mu.Unlock()
			return nil, err
		}
		if s.remaining == 0 {
			results := s.results
			s.mu.Unlock()
			return results, nil
		}
		s.dispatchLocked()
		s.speculateLocked()
		s.mu.Unlock()
		select {
		case <-s.ctx.Done():
			s.mu.Lock()
			if s.firstErr == nil {
				s.firstErr = s.ctx.Err()
			}
			err := s.firstErr
			s.mu.Unlock()
			return nil, err
		case <-s.wake:
		case <-ticker.C:
		}
	}
}

// dispatchLocked hands pending shards to idle workers: each scan pulls
// the oldest dispatchable shard and places it on the least-loaded live
// worker, so a worker that frees up effectively steals the next unit of
// queued work regardless of any static plan.
func (s *sched) dispatchLocked() {
	now := time.Now()
	for i := 0; i < len(s.pending); {
		st := s.states[s.pending[i]]
		if st.done {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.c.queueDepth.Add(-1)
			continue
		}
		if now.Before(st.notBefore) {
			i++
			continue
		}
		url, ok, anyAlive := s.c.registry.tryAcquire(s.c.opts.MaxInflight, nil)
		if anyAlive {
			s.noLiveSince = time.Time{}
		}
		if !ok {
			if !anyAlive {
				// No live worker at all. Don't block forever, but don't
				// fail on a blip either: give the heartbeat (or a join) a
				// grace window to produce a worker before declaring the
				// sweep dead.
				if s.noLiveSince.IsZero() {
					s.noLiveSince = now
				} else if now.Sub(s.noLiveSince) >= s.noLiveGrace() {
					s.c.failed.Add(1)
					s.failLocked(fmt.Errorf("cluster: shard [%d,%d): no live workers for %v", st.sr.lo, st.sr.hi, s.noLiveGrace()))
					return
				}
				return
			}
			// Every live worker is saturated; the next completion,
			// heartbeat revival, or join frees a slot within one tick.
			return
		}
		s.pending = append(s.pending[:i], s.pending[i+1:]...)
		s.c.queueDepth.Add(-1)
		if st.attempts > 0 && st.lastWorker != "" && url != st.lastWorker {
			s.c.registry.addSteal(url)
		}
		s.launchLocked(st, url, false)
	}
}

// noLiveGrace is how long dispatch tolerates an empty live-worker set
// before failing the sweep: two heartbeat rounds (so one missed probe
// never kills a sweep), with a one-second floor.
func (s *sched) noLiveGrace() time.Duration {
	grace := 2 * time.Duration(s.c.opts.HeartbeatMillis) * time.Millisecond
	if grace < time.Second {
		grace = time.Second
	}
	return grace
}

// speculateLocked re-dispatches stragglers: once the queue is drained and
// enough shards have completed to estimate a latency distribution, any
// single-copy shard running longer than SpeculationFactor times the
// SpeculationPercentile latency gets a second copy on a different worker.
func (s *sched) speculateLocked() {
	if s.c.opts.NoSpeculation || len(s.pending) != 0 {
		return
	}
	threshold, ok := s.thresholdLocked()
	if !ok {
		return
	}
	now := time.Now()
	for _, st := range s.states {
		if st.done || st.speculated || len(st.copies) != 1 {
			continue
		}
		if now.Sub(st.started) < threshold {
			continue
		}
		exclude := make(map[string]bool, 1)
		for _, ci := range st.copies {
			exclude[ci.url] = true
		}
		url, ok, _ := s.c.registry.tryAcquire(s.c.opts.MaxInflight, exclude)
		if !ok {
			return // no second worker free; retry next scan
		}
		s.launchLocked(st, url, true)
		s.c.log.Info("cluster speculating straggler",
			"lo", st.sr.lo, "hi", st.sr.hi, "worker", url,
			"running_for", now.Sub(st.started), "threshold", threshold)
	}
}

// thresholdLocked derives the straggler threshold from this sweep's
// completed-shard latencies; ok is false until SpeculationMinSamples
// shards have finished.
func (s *sched) thresholdLocked() (time.Duration, bool) {
	if len(s.latencies) < s.c.opts.SpeculationMinSamples {
		return 0, false
	}
	sorted := append([]float64(nil), s.latencies...)
	sort.Float64s(sorted)
	p := percentile(sorted, s.c.opts.SpeculationPercentile)
	return time.Duration(p * s.c.opts.SpeculationFactor * float64(time.Second)), true
}

// percentile reads quantile q from ascending sorted using the
// nearest-rank method.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// launchLocked starts one copy of a shard on url (slot already acquired).
func (s *sched) launchLocked(st *shardState, url string, speculative bool) {
	s.copySeq++
	id := s.copySeq
	cctx, cancel := context.WithCancel(s.ctx)
	st.copies[id] = &copyInfo{url: url, speculative: speculative, cancel: cancel}
	if len(st.copies) == 1 {
		st.started = time.Now()
	}
	s.c.dispatched.Add(1)
	s.c.runningShards.Add(1)
	s.st.ShardDispatch(st.sr.lo, st.sr.hi, url)
	if speculative {
		st.speculated = true
		s.c.speculated.Add(1)
	}
	go func() {
		start := time.Now()
		shard, err := s.c.postShard(cctx, url, s.norm, s.hash, st.sr)
		cancel()
		s.c.registry.release(url)
		s.c.runningShards.Add(-1)
		s.complete(st, id, url, shard, err, time.Since(start), speculative)
	}()
}

// complete applies one copy's outcome. First success wins the shard:
// remaining copies are cancelled and their eventual completions (success
// or cancellation error alike) are discarded here idempotently.
func (s *sched) complete(st *shardState, id int, url string, shard *blitzcoin.ShardResult, err error, elapsed time.Duration, speculative bool) {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		s.signal()
	}()
	delete(st.copies, id)

	if err == nil {
		if st.done {
			// The other copy already won; this byte-identical duplicate is
			// dropped before it can reach the merge. The loss was already
			// charged when the winner cancelled the remaining copies.
			s.c.dupDiscarded.Add(1)
			return
		}
		st.done = true
		s.results[st.idx] = shard
		s.remaining--
		s.latencies = append(s.latencies, elapsed.Seconds())
		s.c.shardLatency.Observe(elapsed.Seconds())
		s.st.ShardDone(st.sr.lo, st.sr.hi, url, elapsed.Seconds(), true)
		if st.speculated {
			if speculative {
				s.c.specWins.Add(1)
				s.c.registry.addSpecWin(url)
			}
			for _, ci := range st.copies {
				ci.cancel()
				s.c.registry.addSpecLoss(ci.url)
			}
		}
		return
	}

	if st.done || s.ctx.Err() != nil {
		// A cancelled loser, or the sweep is already ending: the outcome
		// no longer matters.
		return
	}
	if pe, ok := err.(permanentError); ok {
		s.c.failed.Add(1)
		s.failLocked(fmt.Errorf("cluster: shard [%d,%d) on %s: %w", st.sr.lo, st.sr.hi, url, pe.err))
		return
	}
	st.attempts++
	st.lastWorker = url
	s.c.log.Warn("cluster shard dispatch failed",
		"worker", url, "lo", st.sr.lo, "hi", st.sr.hi, "attempt", st.attempts, "error", err)
	if len(st.copies) > 0 {
		// The shard's other copy is still running and may yet win; only
		// when it too fails does the shard re-enter the queue.
		return
	}
	if st.attempts >= s.c.opts.MaxAttempts {
		s.c.failed.Add(1)
		s.failLocked(fmt.Errorf("cluster: shard [%d,%d) failed after %d attempts: %w", st.sr.lo, st.sr.hi, st.attempts, err))
		return
	}
	s.c.retried.Add(1)
	delay := fullJitterBackoff(time.Duration(s.c.opts.RetryBackoffMillis)*time.Millisecond, st.attempts)
	if ra, ok := err.(retryAfterError); ok && ra.after > delay {
		// The worker asked for a longer pause than our backoff would give
		// it (throttling, draining): honor the Retry-After hint.
		delay = ra.after
	}
	st.notBefore = time.Now().Add(delay)
	s.pending = append(s.pending, st.idx)
	s.c.queueDepth.Add(1)
}

// failLocked records the sweep's first fatal error and cancels every
// outstanding copy.
func (s *sched) failLocked(err error) {
	if s.firstErr == nil {
		s.firstErr = err
	}
	for _, st := range s.states {
		for _, ci := range st.copies {
			ci.cancel()
		}
	}
}

// fullJitterBackoff returns a uniform random delay in [0, base<<(attempt-1))
// — "full jitter", so the retries queued while a worker was down spread
// out instead of thundering back onto it on the same tick. The window is
// capped at 1024x base.
func fullJitterBackoff(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 10 {
		shift = 10
	}
	window := base << shift
	return time.Duration(rand.Int64N(int64(window)))
}
