package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share req; parent is
// the id of the span that caused it (-1 for a root). blk is the timed
// block the span ran in, whose factor converts it into reference-host
// units.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Blk    int32  `json:"blk"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	blk   int32
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, req, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Blk: t.blk, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes the span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span timed by the caller.
func (t *tracer) add(name string, req, parent int32, start time.Time, ms float64) {
	if t == nil {
		return
	}
	st := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: req, Blk: t.blk, Name: name, Start: st, End: st + int64(ms*1e6)})
	t.mu.Unlock()
}

// setBlock tags the spans that follow with block b.
func (t *tracer) setBlock(b int) {
	if t != nil {
		t.mu.Lock()
		t.blk = int32(b)
		t.mu.Unlock()
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap (parallel trials under one
// sweep span), so the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) []int64 {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, curLo, curHi int64
		open := false
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if open && lo <= curHi {
				curHi = max(curHi, hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = lo, hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// write stores the spans as gzipped JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			span
			SelfNs int64 `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes collects, per span name, the durations in ms converted into
// reference-host units by each span's block factor.
func (t *tracer) layerTimes(c *clock) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		f := 1.0
		if int(s.Blk) < len(c.blocks) {
			f = c.blocks[s.Blk].factor
		}
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e6*f)
	}
	return out
}
