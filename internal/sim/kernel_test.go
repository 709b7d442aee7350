package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	var k Kernel
	var got []int
	k.Schedule(10, func() { got = append(got, 2) })
	k.Schedule(5, func() { got = append(got, 1) })
	k.Schedule(10, func() { got = append(got, 3) }) // same time: FIFO by seq
	k.Schedule(20, func() { got = append(got, 4) })
	k.Drain()
	want := []int{1, 2, 3, 4}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 20 {
		t.Fatalf("Now = %d, want 20", k.Now())
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	var k Kernel
	var order []string
	k.Schedule(3, func() {
		order = append(order, "a")
		k.Schedule(0, func() { order = append(order, "b") })
	})
	k.Schedule(3, func() { order = append(order, "c") })
	k.Drain()
	// "b" is scheduled during "a" at time 3 and must run after "c",
	// which was scheduled earlier for the same cycle.
	if len(order) != 3 || order[0] != "a" || order[1] != "c" || order[2] != "b" {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %d", k.Now())
	}
}

func TestRunStopsAtBound(t *testing.T) {
	var k Kernel
	ran := 0
	for i := Cycles(1); i <= 10; i++ {
		k.Schedule(i*10, func() { ran++ })
	}
	n := k.Run(35)
	if n != 3 || ran != 3 {
		t.Fatalf("Run executed %d events (cb %d), want 3", n, ran)
	}
	if k.Now() != 35 {
		t.Fatalf("Now = %d, want 35 (clamped)", k.Now())
	}
	k.Run(1000)
	if ran != 10 {
		t.Fatalf("total ran = %d, want 10", ran)
	}
}

func TestAtPastPanics(t *testing.T) {
	var k Kernel
	k.Schedule(10, func() {})
	k.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestRunUntilStopsOnPredicate(t *testing.T) {
	var k Kernel
	count := 0
	var rec func()
	rec = func() {
		count++
		k.Schedule(1, rec)
	}
	k.Schedule(1, rec)
	k.RunUntil(func() bool { return count >= 7 }, 0)
	if count != 7 {
		t.Fatalf("count = %d, want 7", count)
	}
	k.RunUntil(nil, 5)
	if count != 12 {
		t.Fatalf("count after maxEvents run = %d, want 12", count)
	}
}

func TestConversionRoundTrip(t *testing.T) {
	if got := CyclesToMicros(800); got != 1.0 {
		t.Fatalf("800 cycles = %v us, want 1", got)
	}
	// Scaling back at 800 cycles per microsecond recovers every count.
	f := func(c uint32) bool {
		cy := Cycles(c)
		return Cycles(CyclesToMicros(cy)*800+0.5) == cy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventsExecuteInTimeOrderProperty(t *testing.T) {
	// Property: for any set of delays, execution times are non-decreasing.
	f := func(delays []uint16) bool {
		var k Kernel
		var times []Cycles
		for _, d := range delays {
			k.Schedule(Cycles(d), func() { times = append(times, k.Now()) })
		}
		k.Drain()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExecutedAndPendingCounters(t *testing.T) {
	var k Kernel
	for i := 0; i < 5; i++ {
		k.Schedule(Cycles(i), func() {})
	}
	if k.Pending() != 5 {
		t.Fatalf("Pending = %d", k.Pending())
	}
	k.Step()
	k.Step()
	if k.Executed() != 2 || k.Pending() != 3 {
		t.Fatalf("Executed=%d Pending=%d", k.Executed(), k.Pending())
	}
}

// The steady-state schedule/execute cycle of typed ops must not allocate:
// the arena, the spill heap and the run buffer reuse their capacity, and
// an op event carries no closure or boxed argument. This is the property
// that removes the per-packet event cost from the emulator hot path.
func TestScheduleOpSteadyStateDoesNotAllocate(t *testing.T) {
	var k Kernel
	var ran int
	op := k.RegisterOp(func(tile int32, x uint64) { ran++ })
	schedule := func() {
		for i := 0; i < 32; i++ {
			k.ScheduleOp(Cycles(i+1), op, int32(i), uint64(i))
		}
		k.ScheduleOp(2*bucketCount, op, 0, 0) // beyond the calendar: the spill heap
	}
	schedule() // warm every buffer's capacity
	k.Drain()
	avg := testing.AllocsPerRun(100, func() {
		schedule()
		k.Drain()
	})
	if avg != 0 {
		t.Fatalf("steady-state ScheduleOp+Drain allocates %v per run, want 0", avg)
	}
	// The warm-up above, AllocsPerRun's own warm-up call, and its 100 runs.
	if want := 33 * (1 + 1 + 100); ran != want {
		t.Fatalf("ran %d ops, want %d", ran, want)
	}
}
