package obs

import (
	"math"
	"testing"
	"time"
)

// latencyHistogram returns a histogram over bounds holding ds.
func latencyHistogram(bounds []float64, ds ...time.Duration) *LatencyHistogram {
	h := NewLatencyHistogram(bounds)
	for _, d := range ds {
		h.Observe(d)
	}
	return h
}

// referenceDurations straddle bucket edges (1ms, 5ms exactly), the
// sub-millisecond range, the +Inf overflow, and an odd nanosecond
// count.
var referenceDurations = []time.Duration{
	300 * time.Microsecond, time.Millisecond, 1500 * time.Microsecond, 4999 * time.Microsecond,
	5 * time.Millisecond, 7 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond,
	99 * time.Millisecond, 250 * time.Millisecond, 260 * time.Millisecond, 1200 * time.Millisecond,
	3 * time.Second, 7 * time.Second, 123456789 * time.Nanosecond,
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// TestLatencyHistogramMatchesReference pins the histogram to the
// numbers the route recorder (milliseconds, its own quantile code) and
// the tracer (seconds, its own stage histogram) reported before they
// shared this type: the same bucket counts, counts and bounds; sums,
// means and quantiles within 1e-12 relative.
func TestLatencyHistogramMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		bounds  []float64
		buckets []struct {
			le  string
			cum float64
		}
		sum float64
	}{
		{
			name:   "route",
			bounds: []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5},
			buckets: []struct {
				le  string
				cum float64
			}{
				{"0.001", 2}, {"0.005", 5}, {"0.01", 6}, {"0.025", 7}, {"0.05", 8}, {"0.1", 9},
				{"0.25", 11}, {"0.5", 12}, {"1", 12}, {"2.5", 13}, {"5", 14}, {"+Inf", 15},
			},
			sum: 12.004255788999998,
		},
		{
			name:   "stage",
			bounds: StageBucketsSeconds,
			buckets: []struct {
				le  string
				cum float64
			}{
				{"0.0001", 0}, {"0.00025", 0}, {"0.0005", 1}, {"0.001", 2}, {"0.0025", 3},
				{"0.005", 5}, {"0.01", 6}, {"0.025", 7}, {"0.05", 8}, {"0.1", 9}, {"0.25", 11},
				{"0.5", 12}, {"1", 12}, {"2.5", 13}, {"5", 14}, {"+Inf", 15},
			},
			sum: 12.004255789,
		},
	} {
		h := latencyHistogram(tc.bounds, referenceDurations...)
		samples := h.Samples([]Label{{"k", "v"}})
		if len(samples) != len(tc.buckets)+2 {
			t.Fatalf("%s: %d samples, want %d", tc.name, len(samples), len(tc.buckets)+2)
		}
		for i, want := range tc.buckets {
			s := samples[i]
			if s.Suffix != "_bucket" || len(s.Labels) != 2 || s.Labels[0] != (Label{"k", "v"}) ||
				s.Labels[1] != (Label{"le", want.le}) || s.Value != want.cum { // lint:exact — cumulative counts are small integers
				t.Errorf("%s: bucket %d = %+v, want le=%s cumulative %v", tc.name, i, s, want.le, want.cum)
			}
		}
		sum, count := samples[len(tc.buckets)], samples[len(tc.buckets)+1]
		if sum.Suffix != "_sum" || !closeRel(sum.Value, tc.sum) {
			t.Errorf("%s: sum sample %+v, want %v", tc.name, sum, tc.sum)
		}
		if count.Suffix != "_count" || count.Value != 15 || h.Count() != 15 { // lint:exact — an integer count
			t.Errorf("%s: count sample %+v / Count %d, want 15", tc.name, count, h.Count())
		}
	}

	// The route recorder's JSON view: milliseconds.
	h := latencyHistogram([]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}, referenceDurations...)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", h.Mean() * 1000, 800.2837192666666},
		{"max", h.Max() * 1000, 7000},
		{"p50", h.Quantile(0.50) * 1000, 37.5},
		{"p90", h.Quantile(0.90) * 1000, 3750},
		{"p99", h.Quantile(0.99) * 1000, 6699.999999999999},
	} {
		if !closeRel(c.got, c.want) {
			t.Errorf("%s = %v ms, want %v", c.name, c.got, c.want)
		}
	}
}

// TestLatencyHistogramEmptyAndSingle covers the edges: an empty
// histogram reports zeros, and a single observation's quantiles stay
// within [0, max].
func TestLatencyHistogramEmptyAndSingle(t *testing.T) {
	h := NewLatencyHistogram(StageBucketsSeconds)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("empty histogram: count %d mean %v max %v p99 %v", h.Count(), h.Mean(), h.Max(), h.Quantile(0.99))
	}
	h.Observe(3 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v < 0 || v > h.Max() {
			t.Errorf("q%v = %v outside [0, %v]", q, v, h.Max())
		}
	}
}
