package main

import (
	"context"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/materials"
)

// The traced run records spans in memory from the benchmark's own code:
// around each call it makes into a layer's public function, and — by
// installing wrapping analyses in a server's registry and a wrapping
// transport in each fleet client — around the calls the server makes
// into the analyses and into its peers. Spans nest where the calls
// nest, so a layer's self time is its span's duration minus the part
// its child spans cover.

// spanRec is one recorded span.
type spanRec struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	start, end time.Duration
	phase      phase
	note       string // engine.run: "hit" or "miss"
	allocs     int64  // heap objects allocated by the call, -1 if not sampled
	bytes      int64  // heap bytes allocated by the call, -1 if not sampled
	size       int    // serving.encode: bytes written
}

// phase tells which part of a traced run a span belongs to.
type phase int

const (
	phaseSetup  phase = iota // ingest, set-up deltas and warming
	phaseReplay              // the workload's measured operations
	phaseProbe               // direct calls that feed per-call metrics only
)

// tracer collects spans. A nil or disabled tracer records nothing, so
// the untraced replay runs the same code without the clock reads.
type tracer struct {
	mu     sync.Mutex
	on     bool
	t0     time.Time
	spans  []spanRec
	stack  []int32
	phase  phase
	allocs bool // sample allocations around measured calls
}

// newTracer preallocates room for the spans of a long replay, so that
// growing the slice does not show up in a sampled call's allocations.
func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), spans: make([]spanRec, 0, 1<<18), stack: make([]int32, 0, 16)}
}

func (t *tracer) enabled() bool { return t != nil && t.on }

func (t *tracer) begin(name string) int32 {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: time.Since(t.t0), phase: t.phase, allocs: -1, bytes: -1})
	idx := int32(len(t.spans) - 1)
	t.stack = append(t.stack, idx)
	return idx
}

func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[idx].end = now
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == idx {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

func (t *tracer) note(idx int32, note string) {
	if idx < 0 {
		return
	}
	t.mu.Lock()
	t.spans[idx].note = note
	t.mu.Unlock()
}

// measure runs fn inside a span. When allocation sampling is on, heap
// counters are read just outside the span, so the read's own cost stays
// out of the span's duration.
func (t *tracer) measure(name string, fn func()) int32 {
	if !t.enabled() {
		fn()
		return -1
	}
	if !t.allocs {
		idx := t.begin(name)
		fn()
		t.end(idx)
		return idx
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx := t.begin(name)
	fn()
	t.end(idx)
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	t.spans[idx].allocs = int64(after.Mallocs - before.Mallocs)
	t.spans[idx].bytes = int64(after.TotalAlloc - before.TotalAlloc)
	t.mu.Unlock()
	return idx
}

// --- Wrappers the server calls through -----------------------------------

// tracedAnalysis wraps a registered analysis so the executor's calls
// into Parse and Compute become engine.parse and analyses.compute_*
// spans. The variants below keep exactly the optional interfaces the
// wrapped analysis implements, because the executor's behaviour depends
// on which ones it finds.
type tracedAnalysis struct {
	inner   engine.Analysis
	t       *tracer
	compute string // span name of Compute
}

func (w tracedAnalysis) Name() string { return w.inner.Name() }

func (w tracedAnalysis) Parse(v url.Values) (engine.Params, error) {
	idx := w.t.begin("engine.parse")
	p, err := w.inner.Parse(v)
	w.t.end(idx)
	return p, err
}

func (w tracedAnalysis) Compute(ctx context.Context, repo *materials.Repository, p engine.Params) (interface{}, error) {
	idx := w.t.begin(w.compute)
	v, err := w.inner.Compute(ctx, repo, p)
	w.t.end(idx)
	return v, err
}

type tracedDeltaAware struct{ tracedAnalysis }

func (w tracedDeltaAware) AffectedBy(paramKey string, d *dataset.Delta) bool {
	return w.inner.(engine.DeltaAware).AffectedBy(paramKey, d)
}

type tracedWarmStarter struct{ tracedDeltaAware }

func (w tracedWarmStarter) ComputeWarm(ctx context.Context, repo *materials.Repository, p engine.Params, prior interface{}, d *dataset.Delta) (interface{}, error) {
	idx := w.t.begin(w.compute + "_warm")
	v, err := w.inner.(engine.WarmStarter).ComputeWarm(ctx, repo, p, prior, d)
	w.t.end(idx)
	return v, err
}

type tracedWarmer struct{ tracedWarmStarter }

func (w tracedWarmer) WarmParams() []engine.Params { return w.inner.(engine.Warmer).WarmParams() }

// installTracing swaps every analysis of reg for its traced wrapper. An
// analysis whose set of optional interfaces has no matching wrapper is
// left as it is (and so records no spans) rather than changed.
func installTracing(reg *engine.Registry, t *tracer) {
	for _, name := range reg.Names() {
		a, _ := reg.Get(name)
		base := tracedAnalysis{inner: a, t: t, compute: "analyses.compute_" + family(name)}
		_, da := a.(engine.DeltaAware)
		_, ws := a.(engine.WarmStarter)
		_, wm := a.(engine.Warmer)
		switch {
		case da && ws && wm:
			reg.Replace(tracedWarmer{tracedWarmStarter{tracedDeltaAware{base}}})
		case da && ws:
			reg.Replace(tracedWarmStarter{tracedDeltaAware{base}})
		case da && !wm:
			reg.Replace(tracedDeltaAware{base})
		case !da && !ws && !wm:
			reg.Replace(base)
		}
	}
}

// spanTransport times a fleet replica's calls to its peers as
// fleet.forward spans; with tracing off it only passes through.
type spanTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (s *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !s.t.enabled() {
		return s.base.RoundTrip(r)
	}
	idx := s.t.begin("fleet.forward")
	resp, err := s.base.RoundTrip(r)
	s.t.end(idx)
	return resp, err
}

// --- Reading the spans ---------------------------------------------------

// spanStats summarises the spans of one name.
type spanStats struct {
	durs   []float64 // ns
	allocs []float64
	bytes  []float64
	sizes  []float64
}

// collect groups spans by name (with ":"+note appended when noted),
// keeping only the phases in keep.
func (t *tracer) collect(keep ...phase) map[string]*spanStats {
	out := map[string]*spanStats{}
	add := func(name string, s spanRec) {
		st := out[name]
		if st == nil {
			st = &spanStats{}
			out[name] = st
		}
		st.durs = append(st.durs, float64(s.end-s.start))
		if s.allocs >= 0 {
			st.allocs = append(st.allocs, float64(s.allocs))
			st.bytes = append(st.bytes, float64(s.bytes))
		}
		if s.size > 0 {
			st.sizes = append(st.sizes, float64(s.size))
		}
	}
	for _, s := range t.spans {
		if !inPhases(s.phase, keep) || s.end == 0 {
			continue
		}
		add(s.name, s)
		if s.note != "" {
			add(s.name+":"+s.note, s)
		}
	}
	return out
}

func inPhases(p phase, keep []phase) bool {
	for _, k := range keep {
		if p == k {
			return true
		}
	}
	return false
}

// selfTimes sums the replay's self time per span name: a span's
// duration minus the part of it its children cover. Root "op" spans are
// the benchmark's own glue and are left out.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.phase != phaseReplay || s.parent < 0 || s.end == 0 {
			continue
		}
		if d := s.end - s.start - child[i]; d > 0 { // children on other goroutines can overlap
			self[s.name] += d
		}
	}
	return self
}

// layerTimes folds self times by name into layers, a layer being the
// span name up to its first dot, and returns their total.
func layerTimes(byName map[string]time.Duration) (map[string]time.Duration, time.Duration) {
	layers := map[string]time.Duration{}
	var total time.Duration
	for name, d := range byName {
		if j := strings.IndexByte(name, '.'); j > 0 {
			name = name[:j]
		}
		layers[name] += d
		total += d
	}
	return layers, total
}

// sortedLayers orders layers by descending self time.
func sortedLayers(self map[string]time.Duration) []string {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	return names
}
