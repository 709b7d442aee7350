package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestStepHoldSemantics(t *testing.T) {
	var s Series
	s.Record(10, 1.0)
	s.Record(20, 3.0)
	if s.At(5) != 0 {
		t.Fatalf("At(5) = %v, want 0 before first point", s.At(5))
	}
	if s.At(10) != 1 || s.At(15) != 1 {
		t.Fatalf("At(10..15) = %v,%v want 1", s.At(10), s.At(15))
	}
	if s.At(20) != 3 || s.At(1000) != 3 {
		t.Fatalf("At(>=20) wrong")
	}
	if s.Last() != 3 {
		t.Fatalf("Last = %v", s.Last())
	}
}

func TestSameCycleCollapse(t *testing.T) {
	var s Series
	s.Record(10, 1)
	s.Record(10, 2)
	if len(s.Points) != 1 || s.At(10) != 2 {
		t.Fatalf("same-cycle collapse failed: %+v", s.Points)
	}
}

func TestOutOfOrderPanics(t *testing.T) {
	var s Series
	s.Record(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order record did not panic")
		}
	}()
	s.Record(5, 2)
}

func TestIntegralAndMean(t *testing.T) {
	var s Series
	s.Record(0, 2)
	s.Record(10, 4)
	s.Record(20, 0)
	// [0,10): 2*10=20; [10,20): 4*10=40; [20,30): 0.
	if got := s.Integral(0, 30); got != 60 {
		t.Fatalf("Integral = %v, want 60", got)
	}
	if got := s.Mean(0, 30); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	// Partial window crossing a step.
	if got := s.Integral(5, 15); got != 2*5+4*5 {
		t.Fatalf("partial Integral = %v, want 30", got)
	}
	if got := s.Integral(30, 10); got != 0 {
		t.Fatalf("inverted window Integral = %v, want 0", got)
	}
}

func TestMaxWindow(t *testing.T) {
	var s Series
	s.Record(0, 1)
	s.Record(10, 5)
	s.Record(20, 2)
	if got := s.Max(0, 30); got != 5 {
		t.Fatalf("Max = %v", got)
	}
	if got := s.Max(12, 30); got != 5 { // held value entering window is 5
		t.Fatalf("Max holding = %v", got)
	}
	if got := s.Max(20, 30); got != 2 {
		t.Fatalf("Max tail = %v", got)
	}
}

func TestRecorderSumAndTotal(t *testing.T) {
	r := NewRecorder()
	r.Series("a").Record(0, 1)
	r.Series("b").Record(5, 2)
	r.Series("a").Record(10, 3)
	if got := sumAt(r, 7); got != 3 {
		t.Fatalf("sumAt(7) = %v, want 3", got)
	}
	total := r.TotalSeries("sum")
	if total.At(0) != 1 || total.At(5) != 3 || total.At(10) != 5 {
		t.Fatalf("total series wrong: %+v", total.Points)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// A recorder built over caller-owned series keeps them, in order, as its
// first series: names, lookups, totals and Attach all reach them.
func TestNewRecorderAdoptsSeries(t *testing.T) {
	slab := make([]Series, 2)
	slab[0].Name, slab[1].Name = "t01-FFT", "t02-GEMM"
	r := NewRecorder(&slab[0], &slab[1])
	if got := r.Series("t02-GEMM"); got != &slab[1] {
		t.Fatal("Series did not return the adopted series")
	}
	r.Series("extra").Record(4, 1)
	b := NewBus()
	sub := b.Subscribe("run", 4)
	defer sub.Close()
	r.Attach(NewStream(b, "run"))
	slab[0].Record(2, 5)
	if ev := <-sub.Events(); ev.Series != "t01-FFT" || ev.Value != 5 {
		t.Fatalf("adopted series published %+v", ev)
	}
	if names := r.Names(); strings.Join(names, ",") != "t01-FFT,t02-GEMM,extra" {
		t.Fatalf("names = %v", names)
	}
	if total := r.TotalSeries("total"); total.At(4) != 6 {
		t.Fatalf("total = %+v", total.Points)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder()
	r.Series("p0").Record(0, 1.5)
	r.Series("p1").Record(10, 2)
	// A series created but never recorded keeps its column, reading 0.
	r.Series("idle")
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d: %q", len(lines), buf.String())
	}
	if lines[0] != "cycle,p0,p1,idle" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "0,1.5,0,0" || lines[2] != "10,1.5,2,0" {
		t.Fatalf("rows = %v", lines[1:])
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if s.At(100) != 0 || s.Last() != 0 || s.Integral(0, 10) != 0 || s.Max(0, 10) != 0 {
		t.Fatal("empty series should read as zero")
	}
}
