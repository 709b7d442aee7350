// Package trace records time series from the SoC simulations — per-tile
// power, tile frequencies, coin counts, activity — and publishes them as
// typed events on a subscribable Bus. Recorder.WriteCSV renders the paper
// artifact's exported-waveform CSV (Xcelium waveforms exported to CSV and
// plotted, e.g. Fig. 16, 19, 20); the blitzd daemon streams the same
// events live over SSE.
package trace

import (
	"fmt"
	"sort"
)

// Point is one observation of one signal.
type Point struct {
	Cycle uint64
	Value float64
}

// Series is a named step-wise signal: the value holds from one point's cycle
// until the next point.
type Series struct {
	Name   string
	Points []Point

	// stream, when active, mirrors every recorded point onto the bus as a
	// live series-point event.
	stream Stream
}

// Record appends an observation. Out-of-order appends panic — recorders are
// driven by the simulation clock, so disorder indicates a harness bug.
func (s *Series) Record(cycle uint64, v float64) {
	if n := len(s.Points); n > 0 && cycle < s.Points[n-1].Cycle {
		panic(fmt.Sprintf("trace: %s: out-of-order record at %d after %d",
			s.Name, cycle, s.Points[n-1].Cycle))
	}
	// Collapse same-cycle updates to the final value at that cycle.
	if n := len(s.Points); n > 0 && s.Points[n-1].Cycle == cycle {
		s.Points[n-1].Value = v
		s.stream.Point(s.Name, cycle, v)
		return
	}
	s.Points = append(s.Points, Point{Cycle: cycle, Value: v})
	s.stream.Point(s.Name, cycle, v)
}

// At returns the signal value at the given cycle (step-hold semantics);
// before the first point it returns 0.
func (s *Series) At(cycle uint64) float64 {
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].Cycle > cycle })
	if i == 0 {
		return 0
	}
	return s.Points[i-1].Value
}

// Last returns the most recent value, or 0 if empty.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Value
}

// Integral computes the time integral of the signal from cycle a to b
// (value x cycles), using step-hold semantics. Used to turn power traces
// into energy and average power.
func (s *Series) Integral(a, b uint64) float64 {
	if b <= a || len(s.Points) == 0 {
		return 0
	}
	var total float64
	cur := s.At(a)
	t := a
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].Cycle > a })
	for ; i < len(s.Points) && s.Points[i].Cycle < b; i++ {
		total += cur * float64(s.Points[i].Cycle-t)
		t = s.Points[i].Cycle
		cur = s.Points[i].Value
	}
	total += cur * float64(b-t)
	return total
}

// Mean returns the time-weighted average of the signal over [a, b).
func (s *Series) Mean(a, b uint64) float64 {
	if b <= a {
		return 0
	}
	return s.Integral(a, b) / float64(b-a)
}

// Max returns the largest recorded value over [a, b) including the held
// value entering the window; 0 if the series is empty.
func (s *Series) Max(a, b uint64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.At(a)
	for _, p := range s.Points {
		if p.Cycle >= a && p.Cycle < b && p.Value > m {
			m = p.Value
		}
	}
	return m
}

// Recorder groups the named series of one simulation run. A run records
// one series per tile, so a name is found by scanning them.
type Recorder struct {
	series []*Series // in creation order
	stream Stream
}

// NewRecorder returns a Recorder holding the given series, in order, as
// its first ones; it keeps the slice. A caller that builds its series in
// one slab, as the SoC runner does, passes pointers into it.
func NewRecorder(series ...*Series) *Recorder {
	return &Recorder{series: series}
}

// Attach mirrors every point recorded from now on — in existing and
// future series — onto the stream as live series-point events. An inert
// (zero) stream detaches. Recording stays allocation-free either way:
// with no bus subscribers a mirrored publish is one atomic load.
func (r *Recorder) Attach(s Stream) {
	r.stream = s
	for _, x := range r.series {
		x.stream = s
	}
}

// Series returns the series with the given name, creating it on first use.
func (r *Recorder) Series(name string) *Series {
	for _, s := range r.series {
		if s.Name == name {
			return s
		}
	}
	s := &Series{Name: name, stream: r.stream}
	r.series = append(r.series, s)
	return s
}

// Names returns the series names in creation order.
func (r *Recorder) Names() []string {
	out := make([]string, len(r.series))
	for i, s := range r.series {
		out[i] = s.Name
	}
	return out
}

// walk calls fn at every cycle at which any series changes, in cycle
// order, with every series' value at that cycle in creation order (0
// before a series' first point). It visits each point once; fn must not
// keep cur.
func (r *Recorder) walk(fn func(cycle uint64, cur []float64)) {
	series := r.series
	cur := make([]float64, len(series))
	next := make([]int, len(series)) // each series' first unconsumed point
	c, more := uint64(0), false
	for _, s := range series {
		if len(s.Points) > 0 && (!more || s.Points[0].Cycle < c) {
			c, more = s.Points[0].Cycle, true
		}
	}
	for more {
		var after uint64
		more = false
		for i, s := range series {
			j := next[i]
			for ; j < len(s.Points) && s.Points[j].Cycle <= c; j++ {
				cur[i] = s.Points[j].Value
			}
			next[i] = j
			if j < len(s.Points) && (!more || s.Points[j].Cycle < after) {
				after, more = s.Points[j].Cycle, true
			}
		}
		fn(c, cur)
		c = after
	}
}

// TotalSeries returns a synthetic series that is the sum of all recorded
// series at every change point — the SoC-level power trace of Fig. 16.
// Each point adds the series' values in creation order, starting from 0.
func (r *Recorder) TotalSeries(name string) *Series {
	n := 0 // the total has at most as many points as the series together
	for _, s := range r.series {
		n += len(s.Points)
	}
	total := &Series{Name: name, Points: make([]Point, 0, n)}
	r.walk(func(c uint64, cur []float64) {
		var sum float64
		for _, v := range cur {
			sum += v
		}
		total.Points = append(total.Points, Point{Cycle: c, Value: sum})
	})
	return total
}
