package serving

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csmaterials/internal/obs"
)

// routeBucketsSeconds are the route-latency histogram upper bounds;
// the final implicit bucket is +Inf.
var routeBucketsSeconds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}

// routeStats accumulates one route's observations.
type routeStats struct {
	byStatus map[int]uint64
	latency  *obs.LatencyHistogram
}

// Metrics is the per-route request recorder: an in-flight gauge and,
// per route, completed requests by status code and an
// obs.LatencyHistogram of their latency. internal/server renders it on
// both metrics endpoints.
type Metrics struct {
	inFlight int64

	mu     sync.Mutex
	routes map[string]*routeStats
}

// NewMetrics returns an empty recorder.
func NewMetrics() *Metrics {
	return &Metrics{routes: make(map[string]*routeStats)}
}

// IncInFlight / DecInFlight maintain the in-flight request gauge.
func (m *Metrics) IncInFlight() { atomic.AddInt64(&m.inFlight, 1) }
func (m *Metrics) DecInFlight() { atomic.AddInt64(&m.inFlight, -1) }

// InFlight is the number of requests currently being served.
func (m *Metrics) InFlight() int64 { return atomic.LoadInt64(&m.inFlight) }

// Observe records one completed request for the route.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{byStatus: make(map[int]uint64), latency: obs.NewLatencyHistogram(routeBucketsSeconds)}
		m.routes[route] = rs
	}
	rs.byStatus[status]++
	rs.latency.Observe(d)
}

// EachRoute calls f with a copy of every route's per-status counts and
// latency histogram, in route order, after releasing the recorder's
// lock.
func (m *Metrics) EachRoute(f func(route string, byStatus map[int]uint64, latency *obs.LatencyHistogram)) {
	m.mu.Lock()
	routes := make(map[string]routeStats, len(m.routes))
	for route, rs := range m.routes {
		routes[route] = routeStats{byStatus: maps.Clone(rs.byStatus), latency: rs.latency.Clone()}
	}
	m.mu.Unlock()
	names := make([]string, 0, len(routes))
	for route := range routes {
		names = append(names, route)
	}
	sort.Strings(names)
	for _, route := range names {
		f(route, routes[route].byStatus, routes[route].latency)
	}
}
