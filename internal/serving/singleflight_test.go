package serving

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSingleflightShares proves that callers arriving while a flight is
// in progress share its result: the test parks the first call on a
// channel, waits until N more callers have joined the flight, and only
// then lets the computation finish.
func TestSingleflightShares(t *testing.T) {
	var g Group
	var calls int32
	started := make(chan struct{})
	block := make(chan struct{})

	results := make(chan int, 9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, _ := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
			atomic.AddInt32(&calls, 1)
			close(started)
			<-block
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		results <- v.(int)
	}()
	<-started

	const joiners = 8
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, shared := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
				atomic.AddInt32(&calls, 1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			if !shared {
				t.Error("joiner did not share the flight")
			}
			results <- v.(int)
		}()
	}
	// Wait until all joiners are provably parked on the in-flight call
	// before releasing it, so sharing is deterministic, not timing luck.
	deadline := time.Now().Add(5 * time.Second)
	for g.waiting("k") < joiners {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d joiners parked", g.waiting("k"), joiners)
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	close(results)

	if n := atomic.LoadInt32(&calls); n != 1 {
		t.Fatalf("computation ran %d times, want 1", n)
	}
	count := 0
	for v := range results {
		count++
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	}
	if count != joiners+1 {
		t.Fatalf("%d results, want %d", count, joiners+1)
	}
}

func TestSingleflightDistinctKeys(t *testing.T) {
	var g Group
	v1, err, shared := g.DoCtxFn(context.Background(), "a", func(context.Context) (interface{}, error) { return 1, nil })
	if err != nil || shared || v1.(int) != 1 {
		t.Fatalf("a: v=%v err=%v shared=%v", v1, err, shared)
	}
	v2, err, shared := g.DoCtxFn(context.Background(), "b", func(context.Context) (interface{}, error) { return 2, nil })
	if err != nil || shared || v2.(int) != 2 {
		t.Fatalf("b: v=%v err=%v shared=%v", v2, err, shared)
	}
	// A key is re-computable after its flight completes.
	v3, _, shared := g.DoCtxFn(context.Background(), "a", func(context.Context) (interface{}, error) { return 3, nil })
	if shared || v3.(int) != 3 {
		t.Fatalf("second a flight: v=%v shared=%v", v3, shared)
	}
}

func TestSingleflightError(t *testing.T) {
	var g Group
	boom := errors.New("boom")
	_, err, _ := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestSingleflightPanic: the panic propagates to the initiating caller
// and parked waiters get an error instead of hanging.
func TestSingleflightPanic(t *testing.T) {
	var g Group
	started := make(chan struct{})
	block := make(chan struct{})
	panicked := make(chan interface{}, 1)
	go func() {
		defer func() { panicked <- recover() }()
		g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
			close(started)
			<-block
			panic("kaboom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) { return nil, nil })
		waiterErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	if p := <-panicked; p != "kaboom" {
		t.Fatalf("initiator recovered %v", p)
	}
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("waiter got nil error after panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after panic")
	}
}

// TestSingleflightLeaderCancelDoesNotPoisonFollowers is the regression
// test for the context-cancellation audit: a leader whose request
// context is cancelled mid-flight abandons the wait with ctx.Err(),
// but the computation keeps running detached and its real result is
// delivered to followers parked on the same key.
func TestSingleflightLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	var g Group
	started := make(chan struct{})
	block := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	leaderErr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoCtxFn(ctx, "k", func(context.Context) (interface{}, error) {
			close(started)
			<-block
			return 42, nil
		})
		leaderErr <- err
	}()
	<-started

	followerDone := make(chan struct{})
	var fv interface{}
	var ferr error
	var fshared bool
	go func() {
		defer close(followerDone)
		fv, ferr, fshared = g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
			return -1, errors.New("follower must not compute")
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never parked")
		}
		time.Sleep(time.Millisecond)
	}

	// Cancel the leader while the flight is still blocked: the leader
	// leaves immediately with its context error.
	cancel()
	select {
	case err := <-leaderErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader still waiting on the flight")
	}
	select {
	case <-followerDone:
		t.Fatal("follower finished while the flight was still blocked")
	default:
	}

	close(block)
	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after the flight completed")
	}
	if ferr != nil || fv.(int) != 42 || !fshared {
		t.Fatalf("follower got v=%v err=%v shared=%v, want 42 from the leader's flight", fv, ferr, fshared)
	}

	// The key is reusable afterwards: no poisoned state remains.
	v, err, shared := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) { return 7, nil })
	if err != nil || shared || v.(int) != 7 {
		t.Fatalf("post-cancel flight: v=%v err=%v shared=%v", v, err, shared)
	}
}

// TestSingleflightWaiterCancel: a follower with a cancelled context
// stops waiting, while the leader still receives the real result.
func TestSingleflightWaiterCancel(t *testing.T) {
	var g Group
	started := make(chan struct{})
	block := make(chan struct{})

	leaderVal := make(chan interface{}, 1)
	go func() {
		v, _, _ := g.DoCtxFn(context.Background(), "k", func(context.Context) (interface{}, error) {
			close(started)
			<-block
			return "real", nil
		})
		leaderVal <- v
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err, shared := g.DoCtxFn(ctx, "k", func(context.Context) (interface{}, error) { return nil, nil })
		if !shared {
			t.Error("waiter did not join the flight")
		}
		waiterErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still parked")
	}

	close(block)
	if v := <-leaderVal; v.(string) != "real" {
		t.Fatalf("leader got %v", v)
	}
}
