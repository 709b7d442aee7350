package tenant

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmissionImmediateWhenFree(t *testing.T) {
	a := NewAdmission(2, 4)
	ctx := context.Background()
	if err := a.Acquire(ctx, ClassBatch); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := a.Acquire(ctx, ClassInteractive); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	a.Release()
	a.Release()
	if got := a.QueueTotal(); got != 0 {
		t.Errorf("queue total = %d, want 0", got)
	}
}

// TestAdmissionPriorityOrder queues a batch waiter before an interactive
// one and asserts the interactive waiter is granted first on release.
func TestAdmissionPriorityOrder(t *testing.T) {
	a := NewAdmission(1, 4)
	ctx := context.Background()
	if err := a.Acquire(ctx, ClassInteractive); err != nil {
		t.Fatalf("occupy slot: %v", err)
	}

	order := make(chan Class, 2)
	var started sync.WaitGroup
	launch := func(c Class) {
		started.Add(1)
		go func() {
			started.Done()
			if err := a.Acquire(ctx, c); err != nil {
				t.Errorf("acquire %v: %v", c, err)
				return
			}
			order <- c
		}()
	}

	launch(ClassBatch)
	waitDepth(t, a, ClassBatch, 1)
	launch(ClassInteractive)
	waitDepth(t, a, ClassInteractive, 1)
	started.Wait()

	a.Release() // must grant the interactive waiter despite batch queuing first
	if got := <-order; got != ClassInteractive {
		t.Fatalf("first grant went to %v, want interactive", got)
	}
	a.Release()
	if got := <-order; got != ClassBatch {
		t.Fatalf("second grant went to %v, want batch", got)
	}
	a.Release()
}

func TestAdmissionQueueFull(t *testing.T) {
	a := NewAdmission(1, 1)
	ctx := context.Background()
	if err := a.Acquire(ctx, ClassInteractive); err != nil {
		t.Fatalf("occupy slot: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Acquire(ctx, ClassInteractive) }()
	waitDepth(t, a, ClassInteractive, 1)

	// The interactive queue is at its bound; the batch queue is separate.
	if err := a.Acquire(ctx, ClassInteractive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound acquire: got %v, want ErrQueueFull", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := a.Acquire(cancelled, ClassBatch); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch acquire on dead ctx: got %v", err)
	}

	a.Release()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.Release()
}

func TestAdmissionCancelledWaiterReleasesSlot(t *testing.T) {
	a := NewAdmission(1, 4)
	ctx := context.Background()
	if err := a.Acquire(ctx, ClassInteractive); err != nil {
		t.Fatalf("occupy slot: %v", err)
	}
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- a.Acquire(wctx, ClassInteractive) }()
	waitDepth(t, a, ClassInteractive, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v", err)
	}
	a.Release()
	// The slot must be acquirable again — the cancelled waiter left no
	// residue.
	if err := a.Acquire(ctx, ClassBatch); err != nil {
		t.Fatalf("acquire after cancelled waiter: %v", err)
	}
	a.Release()
}

// TestAdmissionConcurrent hammers the controller from many goroutines
// under -race: every grant is eventually released, no slot is leaked, and
// the controller ends idle.
func TestAdmissionConcurrent(t *testing.T) {
	const slots, goroutines, rounds = 3, 16, 50
	a := NewAdmission(slots, goroutines*rounds)
	var inside, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		class := Class(g % int(NumClasses))
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := a.Acquire(context.Background(), class); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				n := inside.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				inside.Add(-1)
				a.Release()
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > slots {
		t.Errorf("concurrency peak %d exceeded %d slots", p, slots)
	}
	if got := a.QueueTotal(); got != 0 {
		t.Errorf("queue total after drain = %d", got)
	}
	// All slots must be free again.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for i := 0; i < slots; i++ {
		if err := a.Acquire(ctx, ClassInteractive); err != nil {
			t.Fatalf("slot %d not returned: %v", i, err)
		}
	}
}

// waitDepth polls until the class queue reaches depth n (the waiter
// goroutine has parked) or the test times out.
func waitDepth(t *testing.T, a *Admission, c Class, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Depths()[c] >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("class %v queue never reached depth %d", c, n)
}

// BenchmarkAdmissionAcquire measures one uncontended Acquire and its
// Release: the admission cost every computed request pays when a worker
// slot is free.
func BenchmarkAdmissionAcquire(b *testing.B) {
	a := NewAdmission(1, 1)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Acquire(ctx, ClassInteractive); err != nil {
			b.Fatal(err)
		}
		a.Release()
	}
}
