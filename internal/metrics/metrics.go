// Package metrics is blitzd's one metrics primitive: a fixed-bound
// Histogram whose Observe takes no lock, and the Writer that alone owns
// the Prometheus text exposition format. Counters and gauges need no type
// here: they are sync/atomic values, or fields their owner's lock already
// guards, handed to the Writer at scrape time. Stdlib-only.
package metrics

import (
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets with Prometheus `le`
// semantics: a value equal to a bound lands in that bound's bucket.
// Observe neither locks nor allocates. A concurrent read may see the sum
// one observation off from the bucket counts, never torn values.
type Histogram struct {
	bounds []float64
	les    []string        // bounds rendered once for the le label
	counts []atomic.Uint64 // per bucket, not cumulative; the last is +Inf
	sum    atomic.Uint64   // math.Float64bits of the running sum
}

// NewHistogram returns a histogram over strictly ascending finite upper
// bounds (at least one); the +Inf bucket is implicit.
func NewHistogram(bounds ...float64) *Histogram {
	h := &Histogram{bounds: bounds, les: make([]string, len(bounds)), counts: make([]atomic.Uint64, len(bounds)+1)}
	for i, b := range bounds {
		h.les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// load appends the per-bucket counts to dst and returns them with their
// total.
func (h *Histogram) load(dst []uint64) ([]uint64, uint64) {
	var total uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		dst = append(dst, n)
		total += n
	}
	return dst, total
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Quantile estimates the q-quantile (0 <= q <= 1) as Prometheus's
// histogram_quantile does: it interpolates linearly inside the bucket
// that holds rank q·count, the first bucket starting at 0. An empty
// histogram returns 0, a quantile in the +Inf bucket the largest bound.
func (h *Histogram) Quantile(q float64) float64 {
	counts, total := h.load(nil)
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var below uint64
	for i, n := range counts[:len(h.bounds)] {
		if n > 0 && float64(below+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-float64(below))/float64(n)
		}
		below += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Writer renders metric families in the Prometheus text exposition
// format 0.0.4: integer samples as decimal integers, floats as %g, label
// values with the format's three escapes. Each line is built in one
// reused buffer and written out whole; the first write error sticks,
// stops further output, and is returned by Err.
type Writer struct {
	w      io.Writer
	line   []byte
	counts []uint64
	err    error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, line: make([]byte, 0, 256)} }

// Err returns the first error the underlying writer reported.
func (w *Writer) Err() error { return w.err }

// Family writes the HELP and TYPE lines that open a metric family; typ is
// "counter", "gauge", "histogram" or "summary".
func (w *Writer) Family(name, typ, help string) {
	b := append(w.line, "# HELP "...)
	b = append(b, name...)
	b = appendEscaped(append(b, ' '), help, false)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	w.end(append(b, typ...))
}

// Counter writes a counter family that has one unlabeled sample.
func (w *Writer) Counter(name, help string, v uint64) {
	w.Family(name, "counter", help)
	w.Uint(name, v)
}

// Gauge writes a gauge family that has one unlabeled sample.
func (w *Writer) Gauge(name, help string, v int64) {
	w.Family(name, "gauge", help)
	w.end(strconv.AppendInt(w.series(name, "", nil, ""), v, 10))
}

// Uint writes one sample; labels are name/value pairs.
func (w *Writer) Uint(name string, v uint64, labels ...string) {
	w.end(strconv.AppendUint(w.series(name, "", labels, ""), v, 10))
}

// Float writes one unlabeled sample.
func (w *Writer) Float(name string, v float64) {
	w.end(strconv.AppendFloat(w.series(name, "", nil, ""), v, 'g', -1, 64))
}

// Histogram writes one histogram's series: a cumulative _bucket line per
// bound and +Inf, then _sum and _count, every line carrying labels.
func (w *Writer) Histogram(name string, h *Histogram, labels ...string) {
	counts, total := h.load(w.counts[:0])
	w.counts = counts
	var cum uint64
	for i, le := range h.les {
		cum += counts[i]
		w.end(strconv.AppendUint(w.series(name, "_bucket", labels, le), cum, 10))
	}
	w.end(strconv.AppendUint(w.series(name, "_bucket", labels, "+Inf"), total, 10))
	w.end(strconv.AppendFloat(w.series(name, "_sum", labels, ""), math.Float64frombits(h.sum.Load()), 'g', -1, 64))
	w.end(strconv.AppendUint(w.series(name, "_count", labels, ""), total, 10))
}

// series starts a sample line in the buffer: name, suffix, the label set
// (the pairs in labels, then le when set) and the space before the value.
func (w *Writer) series(name, suffix string, labels []string, le string) []byte {
	b := append(w.line, name...)
	b = append(b, suffix...)
	if len(labels) < 2 && le == "" {
		return append(b, ' ')
	}
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(b, sep)
		b = append(b, labels[i]...)
		b = append(b, '=', '"')
		b = appendEscaped(b, labels[i+1], true)
		b = append(b, '"')
		sep = ','
	}
	if le != "" {
		b = append(b, sep)
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"')
	}
	return append(b, '}', ' ')
}

// appendEscaped appends s with the text format's escapes: backslash and
// line feed always, the double quote inside label values. Every other
// byte is written raw.
func appendEscaped(b []byte, s string, quote bool) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && quote:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// end terminates the line in b, writes it out and recycles the buffer.
func (w *Writer) end(b []byte) {
	b = append(b, '\n')
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
	w.line = b[:0]
}
