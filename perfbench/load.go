package main

import (
	"context"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed (or failed) request of a measured phase.
type sample struct {
	op      int           // index into the phase's op list
	latency time.Duration // from when it was sent, or due (see openLoop)
	lag     time.Duration // how late it was sent (open loop), or its think gap (closed loop)
	sent    time.Time
	status  int
	hash    uint64
	rounded uint64
	err     bool
}

// ok reports a 2xx reply that arrived.
func (s sample) ok() bool { return !s.err && s.status >= 200 && s.status < 300 }

// client is one load-generator connection: a goroutine owns it and sends
// one request at a time to its front node.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{http: &http.Client{Transport: newTransport(1)}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends ops[i] and times it from from (the send time when zero).
func (c *client) do(ctx context.Context, ops []op, i int, from time.Time) sample {
	sent := time.Now()
	r, err := send(ctx, c.http, c.base, &ops[i])
	done := time.Now()
	if from.IsZero() {
		from = sent
	}
	return sample{op: i, latency: done.Sub(from), sent: sent, status: r.status, hash: r.hash, rounded: r.rounded, err: err != nil}
}

// openLoop sends seq (indices into ops) at a fixed rate across the
// clients, for dur. Request i is due at start + i/rate whatever happened
// to earlier requests. The clients share one counter, so a free client
// takes the next due request. A request whose client was still busy
// when it fell due is timed from its due time, so a stall shows as
// latency on every request queued behind it; a request whose client was
// idle and sleeping is timed from when it was sent, because the sleep's
// overshoot (about a millisecond: Go rounds short timer waits up when
// every P is idle) is the generator's lateness, not the server's. Both
// kinds record that lateness as lag.
func openLoop(ctx context.Context, clients []*client, ops []op, seq []int, rate float64, dur time.Duration) []sample {
	n := int(rate * dur.Seconds())
	if n > len(seq) {
		n = len(seq)
	}
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Time{}
				}
				s := c.do(ctx, ops, seq[i], from)
				s.lag = s.sent.Sub(due)
				out[i] = s
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop runs each client through its own op sequence, each request
// sent as soon as the previous reply arrived, until dur has passed.
func closedLoop(ctx context.Context, clients []*client, ops []op, seqs [][]int, dur time.Duration) []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for ci, c := range clients {
		wg.Add(1)
		go func(c *client, seq []int) {
			defer wg.Done()
			var mine []sample
			last := time.Now()
			for j := 0; time.Now().Before(deadline); j++ {
				s := c.do(ctx, ops, seq[j%len(seq)], time.Time{})
				s.lag = s.sent.Sub(last)
				last = s.sent.Add(s.latency)
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c, seqs[ci])
	}
	wg.Wait()
	return out
}

// latencies returns the latencies of ss in ms; failed requests count as
// +Inf, so they miss any limit.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.latency)
		if !s.ok() {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// rung is one step of a rate ladder.
type rung struct {
	rate     float64
	p99      float64       // median of the rung's per-1000-request p99s
	backlog  time.Duration // median lag of the rung's last fifth of requests
	achieved float64       // completed requests per second, drain included
	pass     bool
	samples  []sample
}

// ladder runs the open loop at every rate for step, and returns the
// rungs plus the highest sustainable rate. A rung passes when its p99
// and its backlog both stay under limit; both are medians over parts of
// the rung, so one host stall does not fail a rung the server sustains.
// The rate is the highest passing rung, refined toward the rung above
// it: when that rung fell behind, the server was saturated and its
// completion rate over the rung is its capacity; when only its tail
// failed, p99 is interpolated linearly between the two. The figure so
// moves smoothly with the server instead of jumping a whole rung.
func ladder(ctx context.Context, clients []*client, ops []op, seq []int, rates []float64, step time.Duration, limitMS float64) ([]rung, float64) {
	var rungs []rung
	off := 0
	for _, r := range rates {
		n := int(r * step.Seconds())
		start := time.Now()
		ss := openLoop(ctx, clients, ops, seq[off:off+n], r, step)
		off += n
		g := rung{rate: r, samples: ss, achieved: float64(countOK(ss)) / time.Since(start).Seconds()}
		g.p99, _ = windowedP99(latencies(ss))
		var lags []float64
		for _, s := range ss[len(ss)*4/5:] {
			lags = append(lags, ms(s.lag))
		}
		g.backlog = time.Duration(median(lags) * float64(time.Millisecond))
		g.pass = g.p99 <= limitMS && ms(g.backlog) <= limitMS
		rungs = append(rungs, g)
	}
	best := -1
	for i, g := range rungs {
		if g.pass {
			best = i
		}
	}
	if best < 0 {
		return rungs, math.Min(rungs[0].achieved, rungs[0].rate)
	}
	if best == len(rungs)-1 {
		return rungs, rungs[best].rate
	}
	prev, next := rungs[best], rungs[best+1]
	rate := prev.rate
	switch {
	case ms(next.backlog) > limitMS:
		rate = next.achieved
	case next.p99 > prev.p99 && !math.IsInf(next.p99, 1):
		rate = prev.rate + (limitMS-prev.p99)/(next.p99-prev.p99)*(next.rate-prev.rate)
	}
	return rungs, math.Max(prev.rate, math.Min(rate, next.rate))
}
