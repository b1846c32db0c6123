package engine_test

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
	"csmaterials/internal/resilience"
	"csmaterials/internal/serving"
)

// fakeParams is the minimal Params implementation.
type fakeParams struct {
	key     string
	invalid bool
}

func (p fakeParams) Validate() error {
	if p.invalid {
		return fmt.Errorf("invalid combination")
	}
	return nil
}

func (p fakeParams) CacheKey() string { return p.key }

// fakeAnalysis is a registry entry whose Compute is a swappable
// function; it is the "one registration" the engine design promises —
// everything else (cache keys, singleflight, breakers, stale serving,
// batch) comes from the executor.
type fakeAnalysis struct {
	name string
	warm []engine.Params
	fn   atomic.Value // func(context.Context, fakeParams) (interface{}, error)
}

func newFake(name string) *fakeAnalysis {
	f := &fakeAnalysis{name: name}
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return "value:" + p.key, nil
	})
	return f
}

func (f *fakeAnalysis) set(fn func(context.Context, fakeParams) (interface{}, error)) {
	f.fn.Store(fn)
}

func (f *fakeAnalysis) Name() string { return f.name }

func (f *fakeAnalysis) Parse(v url.Values) (engine.Params, error) {
	if v.Get("key") == "unparsable" {
		return nil, fmt.Errorf("bad key")
	}
	return fakeParams{key: v.Get("key"), invalid: v.Get("key") == "invalid"}, nil
}

func (f *fakeAnalysis) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	fn := f.fn.Load().(func(context.Context, fakeParams) (interface{}, error))
	return fn(ctx, p.(fakeParams))
}

func (f *fakeAnalysis) WarmParams() []engine.Params { return f.warm }

// newFakeExecutor builds an executor over one fake analysis with the
// full ladder enabled: a registry holding only the default dataset,
// cache, breakers (threshold 3), stale serving.
func newFakeExecutor(f *fakeAnalysis) (*engine.Executor, *serving.Cache, *resilience.BreakerSet) {
	cache := serving.NewCache(16)
	breakers := resilience.NewBreakerSet(3, time.Minute)
	e := engine.NewExecutor(engine.NewRegistry(f), engine.ExecutorOptions{
		Datasets:   dataset.NewRegistry(nil),
		Cache:      cache,
		Breakers:   breakers,
		StaleServe: true,
	})
	return e, cache, breakers
}

func vals(key string) url.Values { return url.Values{"key": []string{key}} }

// TestFakeAnalysisFullLadder registers ONE fake analysis and drives it
// through every serving behaviour the executor promises — miss, hit,
// stale degradation, circuit breaking, recovery, and batch — proving
// that an analysis gets the whole ladder from a single registration.
func TestFakeAnalysisFullLadder(t *testing.T) {
	f := newFake("fake")
	var computes int32
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		atomic.AddInt32(&computes, 1)
		return "value:" + p.key, nil
	})
	e, cache, breakers := newFakeExecutor(f)
	ctx := context.Background()

	// Miss then hit under the canonical key.
	v, out, err := e.Run(ctx, "fake", vals("a"))
	if err != nil || v != "value:a" || out.Cache != "miss" || out.Key != "fake|a" {
		t.Fatalf("first run: v=%v out=%+v err=%v", v, out, err)
	}
	if _, out, _ := e.Run(ctx, "fake", vals("a")); out.Cache != "hit" {
		t.Fatalf("second run not a hit: %+v", out)
	}
	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Fatalf("computes = %d, want 1", n)
	}

	// Break the compute path: the cached key degrades to its stale
	// last-known-good value after the fresh entry is wiped.
	cache.Reset()
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return nil, fmt.Errorf("backend exploded")
	})
	for i := 0; i < 3; i++ {
		v, out, err := e.Run(ctx, "fake", vals("a"))
		if err != nil || v != "value:a" || out.Cache != "stale" || !out.Stale {
			t.Fatalf("degraded run %d: v=%v out=%+v err=%v", i, v, out, err)
		}
	}
	// Each stale serve launched a detached refresh. Let them finish
	// before reasoning about the breaker: a refresh still running after
	// the heal below would take the half-open probe slot and turn this
	// test's own post-recovery request away.
	e.WaitDetached()

	// Three consecutive failures opened the breaker; an uncached key now
	// fails fast with ErrOpen without touching Compute.
	if st := breakers.Get("fake").Stats(); st.State != "open" {
		t.Fatalf("breaker state = %q, want open", st.State)
	}
	before := atomic.LoadInt32(&computes)
	_, _, err = e.Run(ctx, "fake", vals("b"))
	if !errors.Is(err, resilience.ErrOpen) {
		t.Fatalf("uncached key under open circuit: err = %v", err)
	}
	if atomic.LoadInt32(&computes) != before {
		t.Fatal("open circuit still invoked Compute")
	}

	// Stats accounting saw the failures and the stale serves.
	st := e.Stats().Analyses["fake"]
	if st.Failures < 3 || st.StaleServed < 3 {
		t.Fatalf("stats = %+v", st)
	}

	// Heal and wait out the cooldown: the half-open probe recomputes and
	// fresh serving resumes.
	breakers.SetClock(func() time.Time { return time.Now().Add(2 * time.Minute) })
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		atomic.AddInt32(&computes, 1)
		return "value:" + p.key, nil
	})
	v, out, err = e.Run(ctx, "fake", vals("b"))
	if err != nil || v != "value:b" || out.Cache != "miss" {
		t.Fatalf("post-recovery run: v=%v out=%+v err=%v", v, out, err)
	}

	// The same registration serves batch items with identical semantics.
	results := e.RunBatch(ctx, []engine.BatchItem{
		{Analysis: "fake", Params: map[string]string{"key": "a"}},
		{Analysis: "fake", Params: map[string]string{"key": "b"}},
	})
	if results[0].Error != nil || results[0].Cache != "stale" && results[0].Cache != "hit" && results[0].Cache != "miss" {
		t.Fatalf("batch[0] = %+v", results[0])
	}
	if results[1].Error != nil || results[1].Cache != "hit" || results[1].Data != "value:b" {
		t.Fatalf("batch[1] = %+v", results[1])
	}
}

// TestRunErrors: unknown analyses, parse failures, and validation
// failures surface as typed *Errors with the right statuses.
func TestRunErrors(t *testing.T) {
	e, _, _ := newFakeExecutor(newFake("fake"))
	cases := []struct {
		name       string
		analysis   string
		key        string
		wantStatus int
		wantCode   string
	}{
		{"unknown analysis", "bogus", "a", 404, "not_found"},
		{"parse failure", "fake", "unparsable", 400, "bad_request"},
		{"validate failure", "fake", "invalid", 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := e.Run(context.Background(), tc.analysis, vals(tc.key))
			var ee *engine.Error
			if !errors.As(err, &ee) {
				t.Fatalf("err = %v, want *engine.Error", err)
			}
			if ee.Status != tc.wantStatus || ee.Code != tc.wantCode {
				t.Fatalf("error = %+v", ee)
			}
		})
	}
}

// TestClientErrorsDoNotTripBreaker: 4xx analysis errors are the service
// working correctly; the circuit stays closed and nothing degrades.
func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	f := newFake("fake")
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return nil, engine.Errorf(404, "not_found", "no such thing %q", p.key)
	})
	e, _, breakers := newFakeExecutor(f)
	for i := 0; i < 5; i++ {
		_, _, err := e.Run(context.Background(), "fake", vals("a"))
		var ee *engine.Error
		if !errors.As(err, &ee) || ee.Status != 404 {
			t.Fatalf("run %d err = %v", i, err)
		}
	}
	if st := breakers.Get("fake").Stats(); st.State != "closed" {
		t.Fatalf("breaker state after 4xx errors = %q, want closed", st.State)
	}
	if st := e.Stats().Analyses["fake"]; st.Failures != 0 {
		t.Fatalf("4xx errors counted as failures: %+v", st)
	}
}

// TestCancellationStopsCompute is the engine's cancellation contract
// end to end: the caller's context cancellation reaches the compute's
// flight context (so an NNMF-style loop can stop), Run returns
// context.Canceled promptly, the breaker does not trip, and nothing is
// cached.
func TestCancellationStopsCompute(t *testing.T) {
	f := newFake("fake")
	started := make(chan struct{})
	stopped := make(chan error, 1)
	f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		close(started)
		<-ctx.Done() // a context-aware compute observes the cancellation
		stopped <- ctx.Err()
		return nil, ctx.Err()
	})
	e, cache, breakers := newFakeExecutor(f)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := e.Run(ctx, "fake", vals("a"))
		errc <- err
	}()
	<-started
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("compute saw %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("compute's flight context was never cancelled")
	}

	// Cancellation is not a failure: breaker closed, nothing cached.
	if st := breakers.Get("fake").Stats(); st.State != "closed" {
		t.Fatalf("breaker after cancellation = %q", st.State)
	}
	if _, ok := cache.Get("default@1|fake|a"); ok {
		t.Fatal("cancelled compute was cached")
	}
}

// TestWarm pre-computes the Warmer's params so the first live request
// is a hit, and surfaces warm failures.
func TestWarm(t *testing.T) {
	f := newFake("fake")
	f.warm = []engine.Params{fakeParams{key: "warmed"}}
	e, _, _ := newFakeExecutor(f)
	if err := e.WarmDataset(context.Background(), dataset.DefaultID); err != nil {
		t.Fatal(err)
	}
	if _, out, _ := e.Run(context.Background(), "fake", vals("warmed")); out.Cache != "hit" {
		t.Fatalf("warmed key not a hit: %+v", out)
	}

	broken := newFake("broken")
	broken.warm = []engine.Params{fakeParams{key: "w"}}
	broken.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
		return nil, fmt.Errorf("warm exploded")
	})
	e2, _, _ := newFakeExecutor(broken)
	if err := e2.WarmDataset(context.Background(), dataset.DefaultID); err == nil {
		t.Fatal("WarmDataset swallowed the compute failure")
	}
}

// TestRegistry covers registration-order iteration, duplicate
// rejection, and the Replace test seam.
func TestRegistry(t *testing.T) {
	b, a := newFake("beta"), newFake("alpha")
	r := engine.NewRegistry(b, a)
	if names := r.Names(); len(names) != 2 || names[0] != "beta" || names[1] != "alpha" {
		t.Fatalf("Names() = %v, want registration order", names)
	}
	if names := r.SortedNames(); names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("SortedNames() = %v", names)
	}
	if err := r.Register(newFake("beta")); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := r.Register(newFake("")); err == nil {
		t.Fatal("empty-name Register succeeded")
	}

	r.Replace(newFake("alpha"))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Replace of unregistered name did not panic")
			}
		}()
		r.Replace(newFake("gamma"))
	}()
}

// TestErrorMapping covers the transport coercions the HTTP layer and
// the batch envelopes rely on.
func TestErrorMapping(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		wantStatus int
		wantCode   string
		failure    bool
	}{
		{"typed error", engine.Errorf(404, "not_found", "x"), 404, "not_found", false},
		{"typed 5xx", engine.Errorf(502, "upstream", "x"), 502, "upstream", true},
		{"open circuit", resilience.ErrOpen, 503, "circuit_open", false},
		{"canceled", context.Canceled, 499, "canceled", false},
		{"deadline", context.DeadlineExceeded, 504, "timeout", true},
		{"plain error", fmt.Errorf("boom"), 500, "internal", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ee := engine.AsError(tc.err)
			if ee.Status != tc.wantStatus || ee.Code != tc.wantCode {
				t.Fatalf("AsError(%v) = %+v", tc.err, ee)
			}
			if got := engine.IsServerFailure(tc.err); got != tc.failure {
				t.Fatalf("IsServerFailure(%v) = %v, want %v", tc.err, got, tc.failure)
			}
		})
	}
	if engine.IsServerFailure(nil) {
		t.Fatal("nil classified as failure")
	}
	// ErrOpen must not feed back into the breaker that raised it.
	if engine.IsServerFailure(resilience.ErrOpen) {
		t.Fatal("ErrOpen classified as failure")
	}
}

// TestDeleteDuringComputeLeavesNoServingState: a run that resolved a
// dataset before its DELETE — a request's own flight, the detached
// refresh a stale serve launched, or a flight every caller abandoned —
// completes after DropDatasetServingState swept the dataset. Its late
// store and counts must not bring the deleted dataset's cache scope or
// stats back.
func TestDeleteDuringComputeLeavesNoServingState(t *testing.T) {
	for _, tc := range []struct {
		name string
		// failFirst makes the request's own compute fail so it is
		// answered stale, leaving the blocked compute to the detached
		// refresh.
		failFirst bool
		// abandon cancels the caller before the DELETE, so the flight
		// (whose compute ignores its context) finishes with no caller
		// left waiting for it.
		abandon bool
	}{{"request flight", false, false}, {"stale refresh", true, false}, {"abandoned flight", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFake("fake")
			datasets := dataset.NewRegistry(nil)
			snap, err := datasets.Put("alt", dataset.Repository().Courses())
			if err != nil {
				t.Fatal(err)
			}
			cache := serving.NewCache(16)
			e := engine.NewExecutor(engine.NewRegistry(f), engine.ExecutorOptions{
				Datasets: datasets, Cache: cache, StaleServe: true,
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.failFirst {
				if _, _, err := e.RunOn(ctx, "alt", "fake", vals("a")); err != nil {
					t.Fatal(err)
				}
				cache.Reset() // keep only the stale copy
			}
			started, release := make(chan struct{}), make(chan struct{})
			var calls int32
			f.set(func(ctx context.Context, p fakeParams) (interface{}, error) {
				if atomic.AddInt32(&calls, 1) == 1 && tc.failFirst {
					return nil, fmt.Errorf("backend exploded")
				}
				close(started)
				<-release
				return "value:" + p.key, nil
			})
			done := make(chan error, 1)
			go func() {
				_, _, err := e.RunOn(ctx, "alt", "fake", vals("a"))
				done <- err
			}()
			<-started
			var flight <-chan struct{}
			if tc.abandon {
				cancel()
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Fatalf("abandoning caller got %v, want context.Canceled", err)
				}
				key := fmt.Sprintf("alt@%d|fake|a", snap.Revision())
				if flight = cache.Flight(key); flight == nil {
					t.Fatalf("no flight running for %s after its caller left", key)
				}
			}
			if err := datasets.Delete("alt"); err != nil {
				t.Fatal(err)
			}
			e.DropDatasetServingState("alt")
			close(release)
			if tc.abandon {
				<-flight // the flight has stored its result for nobody
			} else if err := <-done; err != nil {
				t.Fatal(err)
			}
			e.WaitDetached()

			if sc, ok := cache.Stats().Scopes["alt"]; ok {
				t.Errorf("deleted dataset's cache scope came back: %+v", sc)
			}
			st := e.Stats()
			if a, ok := st.Analyses["alt/fake"]; ok {
				t.Errorf("deleted dataset's executor stats came back: %+v", a)
			}
			if r, ok := st.Refresh["alt"]; ok {
				t.Errorf("deleted dataset's refresh stats came back: %+v", r)
			}
		})
	}
}
