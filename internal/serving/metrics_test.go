package serving

import (
	"testing"
	"time"

	"csmaterials/internal/obs"
)

// routeOf runs f on one route's recorder state, failing when the route
// was never observed.
func routeOf(t *testing.T, m *Metrics, route string, f func(byStatus map[int]uint64, latency *obs.LatencyHistogram)) {
	t.Helper()
	found := false
	m.EachRoute(func(r string, byStatus map[int]uint64, latency *obs.LatencyHistogram) {
		if r == route {
			found = true
			f(byStatus, latency)
		}
	})
	if !found {
		t.Fatalf("route %q not recorded", route)
	}
}

// bucketCounts maps each bucket's upper bound (seconds) to its count.
func bucketCounts(h *obs.LatencyHistogram) map[float64]uint64 {
	out := map[float64]uint64{}
	h.Buckets(func(upper float64, n uint64) { out[upper] = n })
	return out
}

func TestMetricsObserve(t *testing.T) {
	m := NewMetrics()
	m.Observe("GET /api/v1/types", 200, 3*time.Millisecond)
	m.Observe("GET /api/v1/types", 200, 7*time.Millisecond)
	m.Observe("GET /api/v1/types", 400, 40*time.Millisecond)
	m.Observe("GET /healthz", 200, 500*time.Microsecond)

	routeOf(t, m, "GET /api/v1/types", func(byStatus map[int]uint64, h *obs.LatencyHistogram) {
		if h.Count() != 3 || byStatus[200] != 2 || byStatus[400] != 1 {
			t.Fatalf("route stats: count %d, by status %v", h.Count(), byStatus)
		}
		if b := bucketCounts(h); b[0.005] != 1 || b[0.01] != 1 || b[0.05] != 1 {
			t.Fatalf("buckets = %v", b)
		}
		if h.Max() != 0.04 { // lint:exact — an injected 40ms observation converts to exactly 0.04
			t.Fatalf("max = %v", h.Max())
		}
		if mean := h.Mean() * 1000; mean < 16 || mean > 17 {
			t.Fatalf("mean = %v ms", mean)
		}
		// Quantiles are monotone and inside the observed range.
		p50, p90, p99 := h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
		if p50 <= 0 || p50 > p90 || p90 > p99 || p99 > h.Max() {
			t.Fatalf("quantiles p50=%v p90=%v p99=%v max=%v", p50, p90, p99, h.Max())
		}
	})
	routeOf(t, m, "GET /healthz", func(_ map[int]uint64, h *obs.LatencyHistogram) {
		if b := bucketCounts(h); b[0.001] != 1 {
			t.Fatalf("healthz buckets = %v", b)
		}
	})
}

func TestMetricsInFlight(t *testing.T) {
	m := NewMetrics()
	m.IncInFlight()
	m.IncInFlight()
	m.DecInFlight()
	if got := m.InFlight(); got != 1 {
		t.Fatalf("in_flight = %d, want 1", got)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	m := NewMetrics()
	m.Observe("r", 200, 8*time.Millisecond)
	routeOf(t, m, "r", func(_ map[int]uint64, h *obs.LatencyHistogram) {
		if p99 := h.Quantile(0.99); p99 <= 0 || p99 > 0.01 {
			t.Fatalf("p99 = %v s, want in (0, 0.01]", p99)
		}
	})
}
