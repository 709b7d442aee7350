package trace

import "context"

// Stream binds a bus to one sweep's key (its canonical options hash): the
// publishing half of the bus API that simulation code holds. The zero
// value is inert — every publish on it is a no-op — so un-instrumented
// callers (direct library use, benchmarks) pay nothing.
type Stream struct {
	bus *Bus
	key string
}

// NewStream returns a stream publishing to b under key.
func NewStream(b *Bus, key string) Stream {
	return Stream{bus: b, key: key}
}

// Active reports whether publishes go anywhere at all.
func (s Stream) Active() bool { return s.bus != nil && s.key != "" }

// publish stamps the key and hands the event to the bus.
func (s Stream) publish(e Event) {
	if s.bus == nil || s.key == "" {
		return
	}
	e.Key = s.key
	s.bus.Publish(e)
}

// Point publishes one live sample of a named series.
func (s Stream) Point(series string, cycle uint64, v float64) {
	s.publish(Event{Type: EventSeriesPoint, Series: series, Cycle: cycle, Value: v})
}

// TrialStart marks trial (of total) beginning.
func (s Stream) TrialStart(trial, total int) {
	s.publish(Event{Type: EventTrialStart, Trial: trial, Total: total})
}

// TrialDone marks trial (of total) finished; converged and its time in
// microseconds describe the outcome.
func (s Stream) TrialDone(trial, total int, converged bool, micros float64) {
	s.publish(Event{Type: EventTrialDone, Trial: trial, Total: total, OK: converged, Value: micros})
}

// Convergence marks a trial whose error crossed the threshold after
// micros microseconds.
func (s Stream) Convergence(trial int, micros float64) {
	s.publish(Event{Type: EventConvergence, Trial: trial, Value: micros})
}

// SweepStart marks a sweep of units trial units beginning.
func (s Stream) SweepStart(units int) {
	s.publish(Event{Type: EventSweepStart, Total: units})
}

// SweepDone marks the sweep completing successfully.
func (s Stream) SweepDone(units int) {
	s.publish(Event{Type: EventSweepDone, Total: units, OK: true})
}

// SweepFailed marks the sweep ending in an error.
func (s Stream) SweepFailed() {
	s.publish(Event{Type: EventSweepFailed})
}

// ShardDispatch marks shard [lo, hi) handed to worker.
func (s Stream) ShardDispatch(lo, hi int, worker string) {
	s.publish(Event{Type: EventShardDispatch, Lo: lo, Hi: hi, Worker: worker})
}

// ShardDone marks shard [lo, hi) finishing on worker after seconds of
// service time; ok is false for a failed dispatch attempt.
func (s Stream) ShardDone(lo, hi int, worker string, seconds float64, ok bool) {
	s.publish(Event{Type: EventShardDone, Lo: lo, Hi: hi, Worker: worker, Value: seconds, OK: ok})
}

// ctxKey keys the stream in a context.
type ctxKey struct{}

// NewContext returns ctx carrying s, for plumbing a stream through the
// Execute/ExecuteShard call tree without widening every signature.
func NewContext(ctx context.Context, s Stream) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the stream carried by ctx, or an inert zero Stream.
func FromContext(ctx context.Context) Stream {
	if ctx == nil {
		return Stream{}
	}
	s, _ := ctx.Value(ctxKey{}).(Stream)
	return s
}
