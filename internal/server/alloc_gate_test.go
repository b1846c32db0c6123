//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts are only comparable in a plain build.

package server

import (
	"net/http"
	"testing"
)

// maxWarmHitAllocs bounds the allocations of one in-process warm
// analysis hit through Server.ServeHTTP (the full middleware stack,
// tracing included): the count measured when cached results started
// carrying their encoding. Re-encoding the value per request took 68.
const maxWarmHitAllocs = 33

// TestWarmHitAllocs is the allocation gate of the warm read path.
func TestWarmHitAllocs(t *testing.T) {
	s := newObsServer(t, Options{})
	r := warmHitRequest(t, s)
	w := &discardWriter{h: http.Header{}}
	allocs := testing.AllocsPerRun(200, func() {
		clear(w.h)
		s.ServeHTTP(w, r)
	})
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	t.Logf("warm hit: %.0f allocs", allocs)
	if allocs > maxWarmHitAllocs {
		t.Fatalf("warm hit allocates %.0f times, gate is %d", allocs, maxWarmHitAllocs)
	}
}
