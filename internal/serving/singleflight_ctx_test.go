package serving

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflightLastWaiterCancelStopsFlight is the cancellation side
// of the contract: when the ONLY caller waiting on a flight departs,
// the flight context is cancelled so a context-aware computation can
// stop burning CPU for nobody.
func TestSingleflightLastWaiterCancelStopsFlight(t *testing.T) {
	var g Group
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	callerErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtxFn(ctx, "k", func(fctx context.Context) (interface{}, error) {
			close(started)
			<-fctx.Done() // a context-aware compute observes the cancellation
			return nil, fctx.Err()
		})
		callerErr <- err
	}()
	<-started

	cancel()
	select {
	case err := <-callerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("caller still waiting; flight context was never cancelled")
	}

	// The key is reusable afterwards: the aborted flight left no state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err, shared := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) { return 7, nil })
		if err == nil && !shared && v.(int) == 7 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-abort flight: v=%v err=%v shared=%v", v, err, shared)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightFlightSurvivesWhileFollowersRemain: the flight
// context is NOT cancelled when one of several waiters departs — the
// remaining follower keeps the flight alive and receives its real
// result. This preserves the detached-flight invariant of the
// context-cancellation audit under the new last-waiter semantics.
func TestSingleflightFlightSurvivesWhileFollowersRemain(t *testing.T) {
	var g Group
	started := make(chan struct{})
	block := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtxFn(ctx, "k", func(fctx context.Context) (interface{}, error) {
			close(started)
			select {
			case <-block:
				return 42, nil
			case <-fctx.Done():
				return nil, fctx.Err()
			}
		})
		leaderErr <- err
	}()
	<-started

	followerVal := make(chan interface{}, 1)
	go func() {
		v, err, _ := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
			return nil, errors.New("follower must not compute")
		})
		if err != nil {
			t.Error(err)
		}
		followerVal <- v
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// The leader leaves; the follower is still waiting, so the flight
	// must keep running rather than observe fctx.Done().
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader got %v", err)
	}
	close(block)
	select {
	case v := <-followerVal:
		if v.(int) != 42 {
			t.Fatalf("follower got %v, want 42 (flight was cancelled under it)", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung")
	}
}

// TestSingleflightAbortedJoinRetries covers the race where a caller
// joins a flight in the window after the flight's cancellation
// triggered but before the flight goroutine finished unwinding: the
// joiner's own context is live, so it must transparently start a fresh
// flight instead of inheriting the dying flight's context error.
func TestSingleflightAbortedJoinRetries(t *testing.T) {
	var g Group
	started := make(chan struct{})
	hold := make(chan struct{})
	var calls int32
	fn := func(fctx context.Context) (interface{}, error) {
		if atomic.AddInt32(&calls, 1) == 1 {
			close(started)
			<-fctx.Done()
			<-hold // keep the dying flight in the map while the joiner arrives
			return nil, fctx.Err()
		}
		return 42, nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtxFn(ctx, "k", fn)
		leaderErr <- err
	}()
	<-started

	// Cancel the sole waiter: the flight context fires, the computation
	// is now failing with context.Canceled but still registered.
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v", err)
	}

	joinerVal := make(chan interface{}, 1)
	go func() {
		v, err, _ := g.DoCtxFn(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("joiner with live context got %v", err)
		}
		joinerVal <- v
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("joiner never parked on the dying flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Let the dying flight return its context error; the joiner must
	// observe the abort and recompute rather than surface it.
	close(hold)
	select {
	case v := <-joinerVal:
		if v.(int) != 42 {
			t.Fatalf("joiner got %v, want 42 from the retried flight", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("joiner hung")
	}
	if n := atomic.LoadInt32(&calls); n != 2 {
		t.Fatalf("computation ran %d times, want 2 (aborted + retried)", n)
	}
}

// TestCacheDoCtxFnCancellation: the cache variant threads the flight
// context into compute, does not cache the aborted error, and serves a
// later caller with a fresh computation.
func TestCacheDoCtxFnCancellation(t *testing.T) {
	c := NewCache(4)
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	errCh := make(chan error, 1)
	go func() {
		_, _, err := c.DoCtxFn(ctx, "k", func(fctx context.Context) (interface{}, error) {
			close(started)
			<-fctx.Done()
			return nil, fctx.Err()
		})
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v", err)
	}

	// Nothing was cached; the next caller computes fresh and succeeds.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, cached, err := c.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) { return "fresh", nil })
		if err == nil && v.Val.(string) == "fresh" {
			if cached {
				t.Fatal("aborted flight left a cached value")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-abort compute: v=%v cached=%v err=%v", v, cached, err)
		}
		time.Sleep(time.Millisecond)
	}

	// And successful DoCtxFn results ARE cached.
	v, cached, err := c.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
		return nil, errors.New("must be served from cache")
	})
	if err != nil || !cached || v.Val.(string) != "fresh" {
		t.Fatalf("cache hit: v=%v cached=%v err=%v", v, cached, err)
	}
}
