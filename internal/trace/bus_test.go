package trace

import (
	"fmt"
	"sync"
	"testing"
)

// TestBusFanOut: every subscriber with a matching key sees every event,
// in publish order; a foreign-key subscriber sees none.
func TestBusFanOut(t *testing.T) {
	b := NewBus()
	s1 := b.Subscribe("k", 16)
	s2 := b.Subscribe("k", 16)
	other := b.Subscribe("other", 16)
	all := b.Subscribe("", 16)
	defer func() {
		for _, s := range []*Subscription{s1, s2, other, all} {
			s.Close()
		}
	}()

	st := NewStream(b, "k")
	st.TrialStart(0, 3)
	st.TrialDone(0, 3, true, 12.5)
	st.SweepDone(3)

	for _, s := range []*Subscription{s1, s2, all} {
		types := []EventType{EventTrialStart, EventTrialDone, EventSweepDone}
		for i, want := range types {
			ev := <-s.Events()
			if ev.Type != want {
				t.Fatalf("event %d: got %v want %v", i, ev.Type, want)
			}
			if ev.Key != "k" {
				t.Fatalf("event %d: key %q", i, ev.Key)
			}
		}
	}
	select {
	case ev := <-other.Events():
		t.Fatalf("foreign-key subscriber received %v", ev.Type)
	default:
	}
}

// TestBusZeroSubscriberPublishAllocs: the zero-subscriber hot path must
// not allocate (it runs inside the SoC power-recording loop).
func TestBusZeroSubscriberPublishAllocs(t *testing.T) {
	b := NewBus()
	st := NewStream(b, "k")
	allocs := testing.AllocsPerRun(1000, func() {
		st.Point("p0", 1, 2.0)
	})
	if allocs != 0 {
		t.Fatalf("zero-subscriber publish allocates %.1f per op", allocs)
	}
}

// TestBusSlowSubscriberDropsOldest: a full buffer drops the oldest
// events, keeps the newest, counts the losses, and never blocks the
// publisher.
func TestBusSlowSubscriberDropsOldest(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe("k", 4)
	defer sub.Close()

	st := NewStream(b, "k")
	const n = 100
	for i := 0; i < n; i++ {
		st.Point("p", uint64(i), float64(i))
	}
	if got := sub.Dropped(); got != n-4 {
		t.Fatalf("dropped %d events, want %d", got, n-4)
	}
	// The survivors are the newest 4, still in order.
	want := uint64(n - 4)
	for i := 0; i < 4; i++ {
		ev := <-sub.Events()
		if ev.Cycle != want {
			t.Fatalf("survivor %d: cycle %d, want %d", i, ev.Cycle, want)
		}
		want++
	}
}

// TestBusConcurrentPublishSubscribe hammers the bus from many publishers
// while subscribers come and go — the -race workout behind the hub
// fan-out guarantee.
func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := NewStream(b, "k")
			for i := 0; i < 500; i++ {
				st.Point("p", uint64(i), float64(i))
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := b.Subscribe("k", 8)
			for i := 0; i < 50; i++ {
				select {
				case <-sub.Events():
				default:
				}
			}
			sub.Close()
			// Reads after Close must terminate (channel closed).
			for range sub.Events() { //nolint:revive // drain
			}
		}()
	}
	wg.Wait()
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers left registered", n)
	}
}

// TestRecorderAttachPublishesPoints: an attached recorder mirrors every
// Record call onto the bus.
func TestRecorderAttachPublishesPoints(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe("run", 16)
	defer sub.Close()

	r := NewRecorder()
	r.Series("pre") // created before Attach; must still publish after
	r.Attach(NewStream(b, "run"))
	r.Series("pre").Record(1, 10)
	r.Series("post").Record(2, 20)

	ev := <-sub.Events()
	if ev.Type != EventSeriesPoint || ev.Series != "pre" || ev.Cycle != 1 || ev.Value != 10 {
		t.Fatalf("first event %+v", ev)
	}
	ev = <-sub.Events()
	if ev.Series != "post" || ev.Value != 20 {
		t.Fatalf("second event %+v", ev)
	}
}

// BenchmarkBusPublish measures one trial-done event published through a
// sweep's Stream, with no subscriber (the path every engine run takes, one
// atomic load and no allocation) and with four subscribers on the sweep's
// key, each drained by its own goroutine as an SSE handler would.
func BenchmarkBusPublish(b *testing.B) {
	for _, subs := range []int{0, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			bus := NewBus()
			var wg sync.WaitGroup
			var open []*Subscription
			for i := 0; i < subs; i++ {
				s := bus.Subscribe("k", 256)
				open = append(open, s)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range s.Events() {
					}
				}()
			}
			st := NewStream(bus, "k")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.TrialDone(i, b.N, true, 12.5)
			}
			b.StopTimer()
			for _, s := range open {
				s.Close()
			}
			wg.Wait()
		})
	}
}
