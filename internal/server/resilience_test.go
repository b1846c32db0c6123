package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csmaterials/internal/resilience/faultinject"
)

// waitFor polls cond until true or a 5s budget runs out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// fakeClock is a manually advanced time source for breaker cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestShedderRejects429UnderOverload is degradation stage 1: the fault
// injector holds one in-flight request on a channel, and with
// MaxInFlight 1 the next request is shed immediately with 429 and a
// Retry-After hint instead of queueing behind the slow one.
func TestShedderRejects429UnderOverload(t *testing.T) {
	hold := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(hold)
		}
	}()
	inj := faultinject.New(1, faultinject.Rule{Match: "/api/v1/courses", Probability: 1, Hold: hold})
	s, err := NewWithOptions(Options{MaxInFlight: 1, Faults: inj, disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	firstStatus := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/v1/courses")
		if err != nil {
			firstStatus <- -1
			return
		}
		resp.Body.Close()
		firstStatus <- resp.StatusCode
	}()
	waitFor(t, "held request admitted", func() bool { return s.limiter.InFlight() == 1 })

	// The server is at capacity: this request is rejected before any
	// work happens on its behalf.
	resp, body := get(t, ts, "/api/v1/courses")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	var e errEnv
	decode(t, body, &e)
	if e.Error.Code != "capacity" {
		t.Fatalf("error envelope = %+v", e)
	}

	// Liveness and observability stay reachable while the API sheds.
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatal("healthz shed under load")
	}

	released = true
	close(hold)
	if got := <-firstStatus; got != 200 {
		t.Fatalf("held request finished with %d", got)
	}

	// The shed shows up in /debug/metrics' resilience section and in
	// the per-route 429 accounting.
	var snap DebugMetrics
	_, mbody := get(t, ts, "/debug/metrics")
	decode(t, mbody, &snap)
	if snap.Resilience.Shedder.Shed < 1 {
		t.Fatalf("resilience snapshot = %+v", snap.Resilience)
	}
	if snap.Routes["GET /api/v1/courses"].ByStatus["429"] != 1 {
		t.Fatalf("route stats = %+v", snap.Routes["GET /api/v1/courses"])
	}
}

// TestBreakerAndStaleDegradation walks stages 2 and 3 of the ladder
// end to end under injected compute failures: stale serving while the
// compute path fails, the circuit opening after the failure threshold,
// fail-fast 503s for keys with no stale fallback, and half-open probe
// recovery once the faults clear and the cooldown elapses.
func TestBreakerAndStaleDegradation(t *testing.T) {
	clk := newFakeClock()
	inj := faultinject.New(1)
	s, err := NewWithOptions(Options{
		CacheSize:        8,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Faults:           inj,
		disableWarmup:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.breakers.SetClock(clk.Now)
	var calls int32
	countCompute(t, s, "types", &calls)
	s.warmup(context.Background()) // synchronous: /readyz is usable for breaker reporting
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Healthy: prime the cache, then wipe the fresh entries so the
	// only remaining copy is the stale last-known-good one.
	e := getEnvelope(t, ts, "/api/v1/types?group=cs1&k=3", 200)
	if e.Meta.Cache != "miss" || e.Meta.Stale {
		t.Fatalf("prime meta = %+v", e.Meta)
	}
	s.Cache().Reset()

	// Stage: compute failures. Every types compute now fails before
	// reaching factorize.Analyze.
	inj.SetRules(faultinject.Rule{Match: "compute/types", Probability: 1, Status: 500})

	// Failing computes degrade to the stale copy instead of erroring.
	for i := 0; i < 3; i++ {
		resp, body := get(t, ts, "/api/v1/types?group=cs1&k=3")
		if resp.StatusCode != 200 {
			t.Fatalf("request %d during failures: status %d\n%s", i, resp.StatusCode, body)
		}
		if resp.Header.Get("X-Served-Stale") != "true" {
			t.Fatalf("request %d: no X-Served-Stale header", i)
		}
		var se env
		decode(t, body, &se)
		if se.Meta.Cache != "stale" || !se.Meta.Stale {
			t.Fatalf("request %d meta = %+v", i, se.Meta)
		}
	}

	// Three consecutive failures: the types circuit is open, and
	// /readyz reports it.
	waitFor(t, "types breaker open", func() bool {
		return s.breakers.Get("types").Stats().State == "open"
	})
	re := getEnvelope(t, ts, "/readyz", 200)
	var ready struct {
		Status   string `json:"status"`
		Breakers map[string]struct {
			State string `json:"state"`
		} `json:"breakers"`
	}
	decode(t, re.Data, &ready)
	if ready.Status != "ready" || ready.Breakers["types"].State != "open" {
		t.Fatalf("readyz = %+v", ready)
	}

	// Open circuit, no stale fallback for this key: fail fast with 503
	// + Retry-After, without attempting the compute.
	resp, body := get(t, ts, "/api/v1/types?group=cs1&k=5")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached key under open circuit: status %d\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("circuit_open 503 without Retry-After")
	}
	var ee errEnv
	decode(t, body, &ee)
	if ee.Error.Code != "circuit_open" {
		t.Fatalf("error envelope = %+v", ee)
	}

	// The stale key still serves while open; other analyses' breakers
	// are untouched (independent circuits).
	resp, _ = get(t, ts, "/api/v1/types?group=cs1&k=3")
	if resp.StatusCode != 200 || resp.Header.Get("X-Served-Stale") != "true" {
		t.Fatalf("stale serve under open circuit: status %d stale=%q", resp.StatusCode, resp.Header.Get("X-Served-Stale"))
	}
	if getEnvelope(t, ts, "/api/v1/cluster?group=cs1&k=2", 200); s.breakers.Get("cluster").Stats().State != "closed" {
		t.Fatal("cluster breaker affected by types failures")
	}
	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("types Compute ran %d times; the breaker/injector should have kept it at the 1 priming call", n)
	}

	// /debug/metrics exposes breaker state and the stale-served count.
	var snap DebugMetrics
	_, mbody := get(t, ts, "/debug/metrics")
	decode(t, mbody, &snap)
	if snap.Resilience.Breakers["types"].State != "open" {
		t.Fatalf("metrics breakers = %+v", snap.Resilience)
	}
	if snap.Cache.StaleServed < 4 {
		t.Fatalf("metrics cache = %+v", snap.Cache)
	}

	// Recovery: faults clear and the cooldown elapses. The next
	// request is admitted as the half-open probe, succeeds, and closes
	// the circuit; responses are fresh again.
	inj.SetRules()
	clk.Advance(time.Minute + time.Second)
	waitFor(t, "fresh non-stale response after recovery", func() bool {
		resp, body := get(t, ts, "/api/v1/types?group=cs1&k=3")
		if resp.StatusCode != 200 || resp.Header.Get("X-Served-Stale") == "true" {
			return false
		}
		var fe env
		decode(t, body, &fe)
		return !fe.Meta.Stale
	})
	if st := s.breakers.Get("types").Stats(); st.State != "closed" {
		t.Fatalf("breaker after successful probe = %+v", st)
	}
	if n := atomic.LoadInt32(&calls); n != 2 {
		t.Fatalf("types Compute ran %d times, want 2 (prime + recovery probe)", n)
	}
}

// TestStaleServeDisabled: with DisableStaleServe the same failure
// surfaces as an error instead of a degraded 200.
func TestStaleServeDisabled(t *testing.T) {
	inj := faultinject.New(1)
	s, err := NewWithOptions(Options{DisableStaleServe: true, Faults: inj, disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	getEnvelope(t, ts, "/api/v1/cluster?group=cs1&k=2", 200)
	s.Cache().Reset()
	inj.SetRules(faultinject.Rule{Match: "compute/cluster", Probability: 1, Status: 500})
	resp, body := get(t, ts, "/api/v1/cluster?group=cs1&k=2")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 with stale serving disabled\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Served-Stale") != "" {
		t.Fatal("X-Served-Stale set on an error response")
	}
}

// TestReadyzFlips: /readyz is 503 before the warmup completes and 200
// after, while /healthz is 200 throughout (liveness != readiness).
func TestReadyzFlips(t *testing.T) {
	s, err := NewWithOptions(Options{disableWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, body := get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-warmup readyz = %d\n%s", resp.StatusCode, body)
	}
	var e env
	decode(t, body, &e)
	var ready struct {
		Status string `json:"status"`
	}
	decode(t, e.Data, &ready)
	if ready.Status != "starting" {
		t.Fatalf("pre-warmup status = %q", ready.Status)
	}
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != 200 {
		t.Fatal("healthz not 200 while starting")
	}

	s.warmup(context.Background())
	e = getEnvelope(t, ts, "/readyz", 200)
	decode(t, e.Data, &ready)
	if ready.Status != "ready" {
		t.Fatalf("post-warmup status = %q", ready.Status)
	}

	// The warmup populated the agreement cache: the first real request
	// for the warmed key is already a hit.
	ae := getEnvelope(t, ts, "/api/v1/agreement?group=all&threshold=2", 200)
	if ae.Meta.Cache != "hit" {
		t.Fatalf("warmed agreement request meta = %+v", ae.Meta)
	}
}

// TestReadyzDefaultWarmup: the default constructor warms up on its own
// and becomes ready without manual intervention.
func TestReadyzDefaultWarmup(t *testing.T) {
	_, ts := newTestServer(t)
	waitFor(t, "server became ready", func() bool {
		resp, _ := get(t, ts, "/readyz")
		return resp.StatusCode == 200
	})
}
