package serving

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"csmaterials/internal/obs"
)

// TestMetricsExport checks the raw form exporters read: routes in
// order, per-status counts, and a histogram whose buckets cover every
// observation.
func TestMetricsExport(t *testing.T) {
	m := NewMetrics()
	m.Observe("GET /api/v1/types", 200, 3*time.Millisecond)
	m.Observe("GET /api/v1/types", 200, 30*time.Millisecond)
	m.Observe("GET /api/v1/types", 400, time.Millisecond)
	m.Observe("GET /api/v1/courses", 200, 700*time.Millisecond)
	m.IncInFlight()
	if got := m.InFlight(); got != 1 {
		t.Fatalf("in-flight = %d, want 1", got)
	}

	var routes []string
	m.EachRoute(func(route string, byStatus map[int]uint64, h *obs.LatencyHistogram) {
		routes = append(routes, route)
		if route != "GET /api/v1/types" {
			return
		}
		if h.Count() != 3 {
			t.Fatalf("count = %d, want 3", h.Count())
		}
		if want := map[int]uint64{200: 2, 400: 1}; !reflect.DeepEqual(byStatus, want) {
			t.Fatalf("by-status = %v, want %v", byStatus, want)
		}
		buckets, last := 0, 0.0
		var total uint64
		h.Buckets(func(upper float64, n uint64) {
			if upper <= last {
				t.Fatalf("bounds not ascending at %v", upper)
			}
			buckets, last, total = buckets+1, upper, total+n
		})
		if buckets != len(routeBucketsSeconds)+1 || !math.IsInf(last, +1) {
			t.Fatalf("%d buckets ending at %v, want %d ending at +Inf", buckets, last, len(routeBucketsSeconds)+1)
		}
		if total != 3 {
			t.Fatalf("bucket total = %d, want 3", total)
		}
		if sum := h.Mean() * 3; math.Abs(sum-0.034) > 1e-12 {
			t.Fatalf("sum = %v s, want 0.034", sum)
		}
	})
	if want := []string{"GET /api/v1/courses", "GET /api/v1/types"}; !reflect.DeepEqual(routes, want) {
		t.Fatalf("routes = %v, want %v", routes, want)
	}

	// The callback gets copies: changing them cannot corrupt the recorder.
	m.EachRoute(func(_ string, byStatus map[int]uint64, h *obs.LatencyHistogram) {
		byStatus[200] = math.MaxUint64
		h.Observe(time.Hour)
	})
	m.EachRoute(func(route string, byStatus map[int]uint64, h *obs.LatencyHistogram) {
		if byStatus[200] == math.MaxUint64 || h.Max() >= time.Hour.Seconds() {
			t.Fatalf("%s: EachRoute aliases the recorder's state", route)
		}
	})
}

// TestMetricsEachRouteConcurrentWithObserve reads the recorder while
// requests are observed; run under -race. Every read sees a histogram
// count equal to its per-status total, so a copy is never torn.
func TestMetricsEachRouteConcurrentWithObserve(t *testing.T) {
	m := NewMetrics()
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.Observe("r", 200+w, time.Duration(i)*time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		m.EachRoute(func(_ string, byStatus map[int]uint64, h *obs.LatencyHistogram) {
			var total uint64
			for _, n := range byStatus {
				total += n
			}
			if total != h.Count() {
				t.Fatalf("torn copy: %d by status, %d in the histogram", total, h.Count())
			}
		})
	}
	m.EachRoute(func(_ string, _ map[int]uint64, h *obs.LatencyHistogram) {
		if h.Count() != writers*perWriter {
			t.Fatalf("count = %d, want %d", h.Count(), writers*perWriter)
		}
	})
}
