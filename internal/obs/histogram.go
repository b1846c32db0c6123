package obs

import (
	"math"
	"sort"
	"time"
)

// LatencyHistogram is the one latency histogram behind both metrics
// endpoints: per-route HTTP latency and per-stage trace latency use it
// alike. It keeps fixed upper bounds in seconds (a final, implicit +Inf
// bucket follows them), per-bucket counts, and the sum, count and max
// of everything observed. It is not safe for concurrent use; its owner
// guards it with its own mutex.
type LatencyHistogram struct {
	bounds []float64 // ascending, seconds; shared and never written
	counts []uint64  // per bucket, not cumulative; len(bounds)+1
	sum    float64   // seconds
	max    float64   // seconds
	count  uint64
}

// NewLatencyHistogram returns an empty histogram over bounds (ascending
// upper bounds in seconds), which it shares rather than copies.
func NewLatencyHistogram(bounds []float64) *LatencyHistogram {
	return &LatencyHistogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	s := d.Seconds()
	h.counts[sort.SearchFloat64s(h.bounds, s)]++
	h.sum += s
	h.count++
	if s > h.max {
		h.max = s
	}
}

// Clone returns an independent copy, for reading outside the owner's
// lock.
func (h *LatencyHistogram) Clone() *LatencyHistogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// Count is the number of observations.
func (h *LatencyHistogram) Count() uint64 { return h.count }

// Max is the largest observation in seconds (0 when empty).
func (h *LatencyHistogram) Max() float64 { return h.max }

// Mean is the mean observation in seconds (0 when empty).
func (h *LatencyHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (0..1) in seconds by linear
// interpolation within the bucket holding rank q·count, the bucket's
// upper edge clamped to the largest observation. It is 0 when empty.
func (h *LatencyHistogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, n := range h.counts {
		next := cum + float64(n)
		if next >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.max
			if i < len(h.bounds) && h.bounds[i] < hi {
				hi = h.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(n)
		}
		cum = next
	}
	return h.max
}

// Buckets calls f for every bucket in bound order with its upper bound
// in seconds (+Inf for the last) and its own, non-cumulative count.
func (h *LatencyHistogram) Buckets(f func(upper float64, n uint64)) {
	for i, n := range h.counts {
		f(h.upper(i), n)
	}
}

func (h *LatencyHistogram) upper(i int) float64 {
	if i < len(h.bounds) {
		return h.bounds[i]
	}
	return math.Inf(+1)
}

// Samples renders the histogram as exposition samples: one cumulative
// _bucket per bound (labels, then le), then _sum and _count.
func (h *LatencyHistogram) Samples(labels []Label) []Sample {
	out := make([]Sample, 0, len(h.counts)+2)
	var cum uint64
	for i, n := range h.counts {
		cum += n
		le := append(append(make([]Label, 0, len(labels)+1), labels...), Label{Name: "le", Value: formatValue(h.upper(i))})
		out = append(out, Sample{Suffix: "_bucket", Labels: le, Value: float64(cum)})
	}
	return append(out,
		Sample{Suffix: "_sum", Labels: labels, Value: h.sum},
		Sample{Suffix: "_count", Labels: labels, Value: float64(h.count)},
	)
}
