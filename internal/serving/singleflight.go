// Package serving is the production-hardening layer between the HTTP
// handlers and the analysis packages: a keyed result cache with
// singleflight deduplication and a stale last-known-good store, the
// envelope writer, the per-route metrics registry, and the middleware
// stack (panic recovery, access logs, instrumentation, load shedding)
// that cmd/serve wraps around the API.
//
// A cache Entry carries its value's response encoding, made once by
// the first writer and shared by every copy of the entry, so
// WriteEnvelope answers a warm hit by writing prepared bytes plus a
// per-request meta block, byte-identical to WriteJSON.
//
// Cached results never go stale on their own: an analysis is a pure
// function of one dataset revision, so the fresh cache is bounded by
// size only. Cache.Rekey is the one sweep: when a dataset changes, the
// engine maps each of its keys to the new revision's key (the result
// provably survives the change) or to "" (it is dropped from both
// stores), and every other key to itself. "Stale" here means a
// last-known-good value that has fallen out of the fresh LRU but is
// retained for degraded serving while the compute path is failing (see
// Cache.Stale and internal/resilience).
//
// The cache participates in request tracing (internal/obs): when a
// request context carries a trace, Cache.DoCtxFn records
// cache-hit/cache-miss, singleflight-lead/-join, and store spans, and
// Metrics.EachRoute exposes the raw per-route histograms that the
// server's Prometheus endpoint renders. Untraced contexts pay one nil
// context lookup and nothing else.
package serving

import (
	"context"
	"sync"
)

// call is an in-flight or completed singleflight computation. The
// result fields are written by the flight goroutine before done is
// closed and only read after <-done, so the channel close orders them;
// waiters is guarded by the group mutex.
type call struct {
	done     chan struct{}
	cancel   context.CancelFunc // cancels the flight context
	waiters  int                // callers (initiator included) still waiting
	val      interface{}
	err      error
	aborted  bool // the flight context was cancelled and fn errored
	panicVal interface{}
	panicked bool
	dups     int // waiters that joined this flight
}

// Group deduplicates concurrent computations by key: while a call for
// a key is in flight, additional DoCtxFn calls for the same key wait
// for it and share its result instead of computing again.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// DoCtxFn executes fn once per key at a time. The flight runs in its
// own goroutine under a dedicated flight context, so no single caller
// owns it: a caller whose ctx is cancelled abandons the wait (receiving
// ctx.Err()) while followers keep the flight alive and receive its real
// result. Only when the LAST waiter departs is the flight context
// cancelled — a context-aware fn then observes cancellation and can
// stop its CPU work, because nobody is left to consume the answer. An
// fn that ignores its context keeps the old detached behaviour and runs
// to completion. The boolean reports whether the result was shared from
// another caller's flight.
//
// A caller that joins a flight in the narrow window after its
// cancellation triggered would receive the dying flight's ctx error
// even though its own context is live; DoCtxFn detects that case and
// transparently starts a fresh flight instead.
//
// If fn panics, the panic propagates to the initiating caller if it is
// still waiting; waiters receive an errPanicked error rather than
// hanging. An initiator that already left keeps the process alive: the
// panic is swallowed into errPanicked for any remaining waiters.
func (g *Group) DoCtxFn(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (interface{}, error, bool) {
	for {
		v, err, shared, aborted := g.doOnce(ctx, key, fn)
		if aborted && ctx.Err() == nil {
			// We shared a flight that was cancelled because all of its
			// own waiters left before we arrived. Our context is live,
			// so compute for real.
			continue
		}
		return v, err, shared
	}
}

func (g *Group) doOnce(ctx context.Context, key string, fn func(context.Context) (interface{}, error)) (v interface{}, err error, shared, aborted bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true, c.aborted
		case <-ctx.Done():
			g.leave(c)
			return nil, ctx.Err(), true, false
		}
	}
	fctx, cancel := context.WithCancel(context.Background()) // lint:detach flights outlive a cancelled leader so late joiners still get the value
	c := &call{done: make(chan struct{}), cancel: cancel, waiters: 1}
	g.m[key] = c
	g.mu.Unlock()

	go func() {
		defer func() {
			if p := recover(); p != nil {
				c.panicked = true
				c.panicVal = p
				c.err = errPanicked
			}
			c.aborted = fctx.Err() != nil && c.err != nil
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
			close(c.done)
			cancel()
		}()
		c.val, c.err = fn(fctx)
	}()

	select {
	case <-c.done:
		if c.panicked {
			panic(c.panicVal)
		}
		return c.val, c.err, false, c.aborted
	case <-ctx.Done():
		g.leave(c)
		return nil, ctx.Err(), false, false
	}
}

// leave records one waiter abandoning the call; the last one out
// cancels the flight context so a context-aware computation can stop.
// Cancelling after the flight already completed is a harmless no-op.
func (g *Group) leave(c *call) {
	g.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	g.mu.Unlock()
	if last {
		c.cancel()
	}
}

// waiting reports how many callers are blocked on the key's in-flight
// call (0 when no call is in flight). Used by tests to build
// deterministic concurrency scenarios.
func (g *Group) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.dups
	}
	return 0
}

// errPanicked is handed to waiters whose flight's fn panicked.
var errPanicked = errorString("serving: singleflight computation panicked")

type errorString string

func (e errorString) Error() string { return string(e) }
