package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
)

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// setUp builds a fresh cluster and brings it to the workload's starting
// state over HTTP: every tenant PUT, the set-up deltas PATCHed to every
// node (each ingest step once the previous one's refresh has settled),
// every warming
// GET served, and every node reporting ready. It
// returns the time from server construction to that point and the PATCH
// round trips.
func setUp(ctx context.Context, w *workload, p *plan, t *tracer) (*cluster, time.Duration, []float64, error) {
	start := time.Now()
	cl, err := startCluster(w.nodes, w.cacheSize, t)
	if err != nil {
		return nil, 0, nil, err
	}
	sc := &http.Client{Transport: newTransport(1)}
	defer sc.CloseIdleConnections()
	fail := func(err error) (*cluster, time.Duration, []float64, error) {
		cl.close()
		return nil, 0, nil, err
	}
	for _, tn := range p.tenants {
		if err := cl.put(ctx, sc, tn); err != nil {
			return fail(err)
		}
		if err := cl.waitReady(ctx, sc, []*tenant{tn}); err != nil {
			return fail(err)
		}
	}
	var deltas []float64
	for i := range p.setup {
		o := &p.setup[i]
		targets := []*node{cl.nodes[o.front]}
		if o.kind == opPatch {
			targets = cl.nodes
		}
		for _, nd := range targets {
			t0 := time.Now()
			r, err := send(ctx, sc, nd.base, o)
			if err != nil {
				return fail(fmt.Errorf("set-up %s: %w", o.path, err))
			}
			if r.status != http.StatusOK {
				return fail(fmt.Errorf("set-up %s: status %d", o.path, r.status))
			}
			if o.kind == opPatch {
				deltas = append(deltas, ms(time.Since(t0)))
			}
		}
		if o.kind == opPatch {
			// Each delta's refresh and background warm-up settle before
			// the next one is sent: back to back, a warm-up finishing
			// after the next delta leaves an older revision's result in
			// the cache, and the delta after that rebases it as if it
			// were current (see CHANGES.md).
			if err := cl.waitReady(ctx, sc, p.tenants); err != nil {
				return fail(err)
			}
		}
	}
	if err := cl.waitReady(ctx, sc, p.tenants); err != nil {
		return fail(err)
	}
	return cl, time.Since(start), deltas, nil
}

// snapshots is the content the servers should hold after the measured
// phase: each tenant's model, or for a writing workload its base plus
// the deltas the writer got acknowledged.
func snapshots(p *plan, res *phaseResult) []snapshot {
	if p.base == nil {
		out := make([]snapshot, len(p.tenants))
		for i, t := range p.tenants {
			out[i] = t.current()
		}
		return out
	}
	writes := make([]op, len(p.writes))
	for i, idx := range p.writes {
		writes[i] = p.ops[idx]
	}
	return []snapshot{after(p.base[0], writes, len(res.deltas))}
}

// runEndToEnd is the untraced run: set up setupReps times, measure the
// last set-up, check every covered reply, and report the end-to-end
// metrics.
func runEndToEnd(ctx context.Context, w *workload, p *plan, seconds float64) (*output, error) {
	var setups, setupDeltas []float64
	var cl *cluster
	for i := 0; i < setupReps; i++ {
		c, d, dl, err := setUp(ctx, w, p, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		setupDeltas = append(setupDeltas, dl...)
		if i < setupReps-1 {
			c.close()
		} else {
			cl = c
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := w.measure(ctx, cl, p, seconds)
	runtime.ReadMemStats(&m1)
	cl.close()

	out := &output{values: map[string]float64{}}
	if err := checkReplies(out, p, res); err != nil {
		return nil, err
	}
	lat := latencies(res.reads)
	p99, pct := windowedP99(lat)
	if pct != 99 {
		out.notef("latency_p99_ms reports p%d: only %d samples", pct, len(lat))
	}
	out.set("setup_s", median(setups))
	out.set("latency_p50_ms", median(lat))
	out.set("latency_p99_ms", p99)
	out.set("throughput_ops", res.throughput)
	out.set("max_rate_rps", res.maxRate)
	dl, from := latencies(res.deltas), "measured"
	if len(dl) == 0 {
		dl, from = setupDeltas, "set-up"
	}
	out.notef("delta_* from %d %s PATCHes", len(dl), from)
	out.set("delta_p50_ms", median(dl))
	out.set("delta_p90_ms", quantile(dl, 0.9))
	out.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(countOK(res.all)))
	out.notef("setup_s runs %v", setups)
	out.notef("%d latency samples, %d requests, %d checked", len(lat), len(res.all), len(res.check))
	for _, g := range res.rungs {
		out.notef("rung %6.0f rps: p99 %8.3f ms, backlog %8.3f ms, achieved %6.0f rps, pass %v, n=%d", g.rate, g.p99, ms(g.backlog), g.achieved, g.pass, len(g.samples))
	}
	return out, nil
}

// checkReplies counts failed requests (non-2xx, transport errors) and
// wrong bodies into out.
func checkReplies(out *output, p *plan, res *phaseResult) error {
	ref, err := newReference(snapshots(p, res))
	if err != nil {
		return err
	}
	bad, rounding, examples, err := verify(ref, p.ops, res.check)
	if err != nil {
		return err
	}
	if rounding > 0 {
		out.notef("search scores: %d replies differ from the reference only below 12 significant digits (IDF weights are summed in map order)", rounding)
	}
	failed := len(res.all) - countOK(res.all)
	out.attempted = len(res.all)
	out.failed = failed + bad
	out.correct = bad == 0 && failed == 0
	if bad > 0 {
		out.notef("WRONG BYTES: %d replies differ from the reference, e.g. %v", bad, examples)
	}
	if failed > 0 {
		out.notef("FAILED: %d requests were not 2xx or did not complete", failed)
	}
	return nil
}

// --- traced run ------------------------------------------------------------

// runTraced measures the workload once untraced (for the diagnostics
// that need the live HTTP path), then replays its operations in-process
// twice on fresh set-ups: untraced for a time budget, and traced for the
// same operations. Per-layer metrics come from the traced replay's
// spans; the two replays' wall times give the tracing overhead.
func runTraced(ctx context.Context, w *workload, p *plan, seconds float64) (*output, error) {
	out := &output{values: map[string]float64{}}
	cl, _, _, err := setUp(ctx, w, p, nil)
	if err != nil {
		return nil, err
	}
	ev0 := evictions(cl)
	rs := startRuntimeSampler()
	res := w.measure(ctx, cl, p, seconds)
	gcPct, heapPeak := rs.stop()
	ev1 := evictions(cl)
	refresh := refreshTotals(cl)
	forwards, fallbacks := fleetTotals(cl)
	cl.close()
	if err := checkReplies(out, p, res); err != nil {
		return nil, err
	}

	n := w.replayOps
	if p.writes != nil {
		n = len(p.replay) // deltas apply once, so a writing plan does not cycle
	}
	plainWall, _, err := replayPass(ctx, w, p, nil, n)
	if err != nil {
		return nil, err
	}
	t := newTracer(true)
	tracedWall, rp, err := replayPass(ctx, w, p, t, n)
	if err != nil {
		return nil, err
	}
	if rp.failed > 0 {
		out.correct = false
		out.notef("FAILED: %d replayed operations failed", rp.failed)
	}
	out.notef("replayed %d ops: untraced %.3fs, traced %.3fs", n, plainWall.Seconds(), tracedWall.Seconds())

	shed := 0
	for _, s := range res.all {
		if s.status == http.StatusTooManyRequests {
			shed++
		}
	}
	// The generator's lateness where it was meant to keep up: the
	// latency population and the ladder rungs that passed.
	var lags []float64
	for _, s := range res.reads {
		lags = append(lags, ms(s.lag))
	}
	for _, g := range res.rungs {
		if g.pass {
			for _, s := range g.samples {
				lags = append(lags, ms(s.lag))
			}
		}
	}
	e2eP50 := median(latencies(res.reads)) * 1000
	layerMetrics(out, t, rp)
	out.set("server.http_overhead_us", e2eP50-out.values["server.handle_p50_us"])
	out.set("resilience.shed_ratio", ratio(float64(shed), float64(len(res.all))))
	out.set("serving.evictions_per_op", ratio(float64(ev1-ev0), float64(len(res.all))))
	out.set("engine.migrated_ratio", ratio(float64(refresh.Migrated), float64(refresh.Migrated+refresh.InvalidatedFresh)))
	out.set("engine.warm_adopted_ratio", ratio(float64(refresh.WarmStarts), float64(refresh.WarmStarts+refresh.WarmFallbacks)))
	out.set("fleet.fallback_ratio", ratio(float64(fallbacks), float64(forwards)))
	out.set("runtime.gc_cpu_pct", gcPct)
	out.set("runtime.heap_peak_mb", heapPeak)
	out.set("loadgen.lag_p99_ms", quantile(lags, 0.99))
	out.set("bench.trace_overhead_pct", ratio(tracedWall.Seconds()-plainWall.Seconds(), plainWall.Seconds())*100)

	byName := t.selfTimes()
	self, total := layerTimes(byName)
	for _, layer := range busyLayers {
		out.set("busy."+layer+"_pct", ratio(float64(self[layer]), float64(total))*100)
	}
	// NNMF runs inside analyses.compute_types, where the benchmark has
	// no span of its own; its share there is estimated from the probes
	// on the same matrices: nnmf.FactorizeCSR (the kernel the serving
	// path runs) over the factorize.AnalyzeCtx that wraps it.
	typesSelf := byName["analyses.compute_types"]
	probes := t.collect(phaseProbe)
	share := 0.0
	if csr, fa := probes["nnmf.factorize_csr"], probes["factorize.analyze"]; csr != nil && fa != nil {
		share = math.Min(1, ratio(sum(csr.durs), sum(fa.durs)))
	}
	out.set("busy.nnmf_est_pct", ratio(float64(typesSelf)*share, float64(total))*100)
	for _, layer := range sortedLayers(self) {
		out.notef("self time %-11s %8.2f%% %10.3f ms", layer, ratio(float64(self[layer]), float64(total))*100, ms(self[layer]))
	}
	path, err := writeSpans(w.name, t)
	if err != nil {
		return nil, err
	}
	out.notef("spans written to %s", path)
	return out, nil
}

// busyLayers are the layers whose share of replay self time is reported.
var busyLayers = []string{"server", "serving", "engine", "analyses", "resilience", "search", "dataset", "agreement", "fleet"}

// replayPass sets the plan up on a fresh cluster and replays the first n
// of its operations in-process, cycling through the replay order. With t
// nil nothing is recorded. It returns the replay's wall time.
func replayPass(ctx context.Context, w *workload, p *plan, t *tracer, n int) (time.Duration, *replayer, error) {
	cl, err := startCluster(w.nodes, w.cacheSize, t)
	if err != nil {
		return 0, nil, err
	}
	defer cl.close()
	sc := &http.Client{Transport: newTransport(1)}
	defer sc.CloseIdleConnections()
	if err := cl.waitReady(ctx, sc, nil); err != nil {
		return 0, nil, err
	}
	if t.enabled() {
		for _, nd := range cl.nodes {
			installTracing(nd.srv.Engine().Registry(), t)
		}
	}
	t.set(phaseSetup, true)
	for _, tn := range p.tenants {
		if err := cl.put(ctx, sc, tn); err != nil {
			return 0, nil, err
		}
	}
	if err := cl.waitReady(ctx, sc, p.tenants); err != nil {
		return 0, nil, err
	}
	rp := newReplayer(t, cl, p.tenants)
	for i := range p.setup {
		rp.run(&p.setup[i])
	}
	t.set(phaseReplay, false)
	start := time.Now()
	for i := 0; i < n; i++ {
		// Allocation counts are sampled on every eighth operation; each
		// sample stops the world twice.
		t.set(phaseReplay, i%8 == 0)
		rp.run(&p.ops[p.replay[i%len(p.replay)]])
	}
	wall := time.Since(start)
	if t.enabled() {
		t.set(phaseProbe, true)
		iters, err := rp.probeFactorize(p.ops)
		if err != nil {
			return 0, nil, err
		}
		rp.iterations = iters
		for _, tn := range p.tenants {
			reg := dataset.NewRegistry(time.Now)
			courses := cloneCourses(tn.initial)
			t.measure("dataset.put", func() { _, err = reg.Put(tn.id, courses) })
			if err != nil {
				return 0, nil, err
			}
		}
	}
	return wall, rp, nil
}

// set switches the phase new spans are recorded under and whether
// allocations are sampled.
func (t *tracer) set(ph phase, allocs bool) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.phase, t.allocs = ph, allocs
	t.mu.Unlock()
}

func evictions(cl *cluster) uint64 {
	var n uint64
	for _, nd := range cl.nodes {
		n += nd.srv.Cache().Stats().Evictions
	}
	return n
}

func refreshTotals(cl *cluster) engine.RefreshStats {
	var sum engine.RefreshStats
	for _, nd := range cl.nodes {
		for _, r := range nd.srv.Engine().Stats().Refresh {
			sum.Migrated += r.Migrated
			sum.InvalidatedFresh += r.InvalidatedFresh
			sum.WarmStarts += r.WarmStarts
			sum.WarmFallbacks += r.WarmFallbacks
		}
	}
	return sum
}

func fleetTotals(cl *cluster) (forwards, fallbacks uint64) {
	for _, nd := range cl.nodes {
		f := nd.srv.Fleet()
		if f == nil {
			continue
		}
		st := f.Stats()
		for _, n := range st.Forwards {
			forwards += n
		}
		fallbacks += st.LocalFallbacks
	}
	return forwards, fallbacks
}

// runtimeSampler tracks GC CPU share and the peak live heap while a
// phase runs.
type runtimeSampler struct {
	stopc  chan struct{}
	wg     sync.WaitGroup
	peak   uint64
	gc0    float64
	total0 float64
}

var sampleNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/memory/classes/heap/objects:bytes"}

func readRuntime() (gc, total float64, heap uint64) {
	s := make([]metrics.Sample, len(sampleNames))
	for i, n := range sampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stopc: make(chan struct{})}
	rs.gc0, rs.total0, rs.peak = readRuntime()
	rs.wg.Add(1)
	go func() {
		defer rs.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-rs.stopc:
				return
			case <-tick.C:
				if _, _, h := readRuntime(); h > rs.peak {
					rs.peak = h
				}
			}
		}
	}()
	return rs
}

// stop ends sampling and returns the GC share of CPU time in percent
// and the peak heap in MB.
func (rs *runtimeSampler) stop() (float64, float64) {
	close(rs.stopc)
	rs.wg.Wait()
	gc, total, h := readRuntime()
	if h > rs.peak {
		rs.peak = h
	}
	return ratio(gc-rs.gc0, total-rs.total0) * 100, float64(rs.peak) / (1 << 20)
}

// writeSpans writes the traced replay's spans, one JSON array per span
// ([name, parent, start_ns, end_ns, phase, note, allocs]), under
// .bench_build/traces in the working directory.
func writeSpans(workload string, t *tracer) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, s := range t.spans {
		row, _ := json.Marshal([]interface{}{s.name, s.parent, int64(s.start), int64(s.end), int(s.phase), s.note, s.allocs})
		b.Write(row)
		b.WriteByte('\n')
	}
	if _, err := f.WriteString(b.String()); err != nil {
		_ = f.Close() // the write error is the one to report
		return "", err
	}
	return path, f.Close()
}
