package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"testing"

	"blitzcoin/internal/rng"
)

// sumAt is the definition of a total's value: every series' value at the
// cycle, looked up with At and added in creation order.
func sumAt(r *Recorder, cycle uint64) float64 {
	var sum float64
	for _, name := range r.Names() {
		sum += r.Series(name).At(cycle)
	}
	return sum
}

// changeCycles is the definition of where a total has points: the sorted
// set of cycles at which any series changes.
func changeCycles(r *Recorder) []uint64 {
	set := map[uint64]struct{}{}
	for _, name := range r.Names() {
		for _, p := range r.Series(name).Points {
			set[p.Cycle] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refTotalSeries and refWriteCSV are TotalSeries and WriteCSV by
// definition: a binary search per series per change cycle.
func refTotalSeries(r *Recorder, name string) *Series {
	total := &Series{Name: name}
	for _, c := range changeCycles(r) {
		total.Record(c, sumAt(r, c))
	}
	return total
}

func refWriteCSV(r *Recorder, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"cycle"}, r.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range changeCycles(r) {
		row := []string{strconv.FormatUint(c, 10)}
		for _, name := range r.Names() {
			row = append(row, strconv.FormatFloat(r.Series(name).At(c), 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// randomRecorder builds a recorder of 1-6 series. Series start late, skip
// ahead, overwrite a cycle, stay silent or share cycles with each other,
// and their values span magnitudes far enough apart that summing in
// another order would change the low bits.
func randomRecorder(src *rng.Source) *Recorder {
	r := NewRecorder()
	n := 1 + src.Intn(6)
	for i := 0; i < n; i++ {
		s := r.Series(fmt.Sprintf("s%d", i))
		if src.Intn(5) == 0 {
			continue // never records; its column reads 0
		}
		c := uint64(src.Intn(50)) // a late start
		for k := src.Intn(30); k >= 0; k-- {
			v := src.Float64() * math.Pow(10, float64(src.Intn(9)-4))
			s.Record(c, v)
			if src.Intn(4) == 0 {
				s.Record(c, v/3) // a same-cycle overwrite
			}
			c += uint64(1 + src.Intn(20))
		}
	}
	return r
}

func TestTotalSeriesMatchesDefinition(t *testing.T) {
	single := NewRecorder()
	single.Series("only").Record(3, 0.1)
	single.Series("only").Record(9, 0.7)
	cases := []*Recorder{NewRecorder(), single}
	src := rng.New(27)
	for i := 0; i < 2000; i++ {
		cases = append(cases, randomRecorder(src))
	}
	for i, r := range cases {
		got, want := r.TotalSeries("total"), refTotalSeries(r, "total")
		if len(got.Points) != len(want.Points) {
			t.Fatalf("case %d: %d points, want %d", i, len(got.Points), len(want.Points))
		}
		for j, p := range got.Points {
			w := want.Points[j]
			if p.Cycle != w.Cycle || math.Float64bits(p.Value) != math.Float64bits(w.Value) {
				t.Fatalf("case %d point %d: %v, want %v", i, j, p, w)
			}
		}
		var gotCSV, wantCSV bytes.Buffer
		if err := r.WriteCSV(&gotCSV); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCSV(r, &wantCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("case %d: csv\n%s\nwant\n%s", i, gotCSV.Bytes(), wantCSV.Bytes())
		}
	}
}

// BenchmarkRecorderTotal measures TotalSeries on a recorder shaped like the
// tile power traces of one 6x6 frame (the silicon workload, two frames
// chained, under C-RR): 10 series of 9, 9, 10, 1, 14, 14, 1, 1, 1 and 1
// points, 61 in all, on 40 distinct cycles spread over some 300,000. Every
// series records its idle draw at cycle 0 and its later points on cycles
// of a shared pool of 39, dealt out so the series together cover it.
func BenchmarkRecorderTotal(b *testing.B) {
	src := rng.New(6)
	pool := make([]uint64, 39)
	c := uint64(0)
	for i := range pool {
		c += uint64(1 + src.Intn(16_000))
		pool[i] = c
	}
	r := NewRecorder()
	deal := 0
	for i, n := range []int{9, 9, 10, 1, 14, 14, 1, 1, 1, 1} {
		s := r.Series(fmt.Sprintf("t%02d", i))
		s.Record(0, 1+src.Float64())
		picks := make([]int, n-1)
		for k := range picks {
			picks[k] = deal * 7 % len(pool) // 7 is prime to 39: 39 deals cover the pool
			deal++
		}
		sort.Ints(picks)
		for _, k := range picks {
			s.Record(pool[k], 5+50*src.Float64())
		}
	}
	if got := len(changeCycles(r)); got != 40 {
		b.Fatalf("recorder changes on %d cycles, want 40", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		totalSink = r.TotalSeries("total")
	}
}

var totalSink *Series
