package trace

import (
	"sync"
	"sync/atomic"
)

// EventType discriminates bus events.
type EventType uint8

// The event taxonomy. Series points carry live signal samples; trial and
// shard events mark sweep progress; sweep events bracket a whole request.
const (
	// EventSeriesPoint is one sample of a named step-wise signal (the
	// live form of a Recorder point).
	EventSeriesPoint EventType = iota + 1
	// EventTrialStart and EventTrialDone bracket one Monte-Carlo trial;
	// Trial/Total locate it on the request's flattened trial axis.
	EventTrialStart
	EventTrialDone
	// EventConvergence marks a trial whose error crossed the threshold;
	// Value is the convergence time in microseconds.
	EventConvergence
	// EventShardDispatch and EventShardDone are coordinator-side shard
	// lifecycle: Lo/Hi is the trial range, Worker the URL it ran on.
	EventShardDispatch
	EventShardDone
	// EventSweepStart, EventSweepDone, and EventSweepFailed bracket a
	// whole request; Total is its unit count.
	EventSweepStart
	EventSweepDone
	EventSweepFailed
)

// String names the event type (also the SSE event name).
func (t EventType) String() string {
	switch t {
	case EventSeriesPoint:
		return "series-point"
	case EventTrialStart:
		return "trial-start"
	case EventTrialDone:
		return "trial-done"
	case EventConvergence:
		return "convergence"
	case EventShardDispatch:
		return "shard-dispatch"
	case EventShardDone:
		return "shard-done"
	case EventSweepStart:
		return "sweep-start"
	case EventSweepDone:
		return "sweep-done"
	case EventSweepFailed:
		return "sweep-failed"
	}
	return "unknown"
}

// Event is one typed bus message. It is a flat value struct — no pointers
// beyond the strings — so publishing moves it through a channel without
// allocating. Which fields are meaningful depends on Type; the rest stay
// zero.
type Event struct {
	Type EventType
	// Seq is the bus-assigned publish sequence (1-based, per bus).
	Seq uint64
	// Key identifies the sweep the event belongs to: the canonical
	// options hash subscribers filter on.
	Key string
	// Series names the signal of a series point.
	Series string
	// Worker is the worker URL of a shard event.
	Worker string
	// Cycle is the simulation time of a series point.
	Cycle uint64
	// Value is the sample value, convergence time (micros), or shard
	// service time (seconds), per Type.
	Value float64
	// Trial/Total locate trial events on the flattened trial axis;
	// Total also carries the unit count of sweep events.
	Trial int
	Total int
	// Lo/Hi is the trial range of a shard event.
	Lo int
	Hi int
	// OK reports trial convergence or shard success.
	OK bool
}

// Bus is a fan-out hub for trace events: recorders publish, any number of
// subscribers consume through bounded per-subscriber buffers. Delivery is
// non-blocking with drop-oldest backpressure, so a slow subscriber loses
// events (counted on its Subscription) but can never stall a simulation.
// The zero-subscriber publish path is one atomic load — no locks, no
// allocation — which keeps instrumented hot paths free when nobody is
// watching.
type Bus struct {
	nsubs atomic.Int64
	seq   atomic.Uint64

	// mu guards subs. Publishers deliver under the read lock, so
	// Subscribe/Close (write lock) are excluded from in-flight sends and
	// closing a subscription's channel is safe.
	mu   sync.RWMutex
	subs []*Subscription
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{}
}

// defaultBus is the process-wide bus Execute and the blitzd daemon share.
var defaultBus = NewBus()

// Default returns the process-wide bus.
func Default() *Bus { return defaultBus }

// Publish fans an event out to every matching subscriber. With no
// subscribers it returns after one atomic load. Safe for concurrent use.
func (b *Bus) Publish(e Event) {
	if b == nil || b.nsubs.Load() == 0 {
		return
	}
	b.publishSlow(e)
}

func (b *Bus) publishSlow(e Event) {
	e.Seq = b.seq.Add(1)
	b.mu.RLock()
	for _, sub := range b.subs {
		if sub.key == "" || sub.key == e.Key {
			sub.deliver(e)
		}
	}
	b.mu.RUnlock()
}

// Subscribe registers a subscriber for events whose Key equals key (every
// event when key is empty). buffer bounds the subscriber's ring; values
// below 1 select 256. The caller must eventually Close the subscription.
func (b *Bus) Subscribe(key string, buffer int) *Subscription {
	if buffer < 1 {
		buffer = 256
	}
	s := &Subscription{bus: b, key: key, ch: make(chan Event, buffer)}
	b.mu.Lock()
	b.subs = append(b.subs, s)
	b.nsubs.Store(int64(len(b.subs)))
	b.mu.Unlock()
	return s
}

// Subscribers reports the current subscriber count.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	return int(b.nsubs.Load())
}

// Subscription is one subscriber's bounded view of a bus. Read Events
// until it closes; Close detaches and closes the channel.
type Subscription struct {
	bus     *Bus
	key     string
	ch      chan Event
	dropped atomic.Uint64
	once    sync.Once
}

// Events returns the subscription's channel. It closes after Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events backpressure discarded so far.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription from the bus and closes its channel.
// Idempotent.
func (s *Subscription) Close() {
	s.once.Do(func() {
		b := s.bus
		b.mu.Lock()
		for i, x := range b.subs {
			if x == s {
				b.subs = append(b.subs[:i], b.subs[i+1:]...)
				break
			}
		}
		b.nsubs.Store(int64(len(b.subs)))
		b.mu.Unlock()
		// The write lock excluded every in-flight deliver, so nobody can
		// send on ch anymore.
		close(s.ch)
	})
}

// deliver enqueues without ever blocking the publisher: when the buffer
// is full the oldest buffered event is evicted (and counted as dropped)
// to make room. The retry cap only matters if a concurrent publisher
// keeps refilling the freed slot; then this event is the one dropped.
func (s *Subscription) deliver(e Event) {
	for i := 0; i < 4; i++ {
		select {
		case s.ch <- e:
			return
		default:
		}
		select {
		case <-s.ch:
			s.dropped.Add(1)
		default:
			// A reader drained concurrently; the send should now fit.
		}
	}
	s.dropped.Add(1)
}
