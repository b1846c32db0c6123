package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"csmaterials/internal/agreement"
	"csmaterials/internal/dataset"
	"csmaterials/internal/engine"
	"csmaterials/internal/engine/analyses"
	"csmaterials/internal/factorize"
	"csmaterials/internal/fleet"
	"csmaterials/internal/materials"
	"csmaterials/internal/matrix"
	"csmaterials/internal/nnmf"
	"csmaterials/internal/ontology"
	"csmaterials/internal/resilience"
	"csmaterials/internal/search"
	"csmaterials/internal/server"
	"csmaterials/internal/serving"
)

// replayer re-runs a workload's operations in-process, calling each
// layer's public function directly on the state of a live cluster:
// admission on a TenantLimiter, Executor.RunOn / RunBatch on the
// owning node's engine, serving.WriteJSON for the encode, the search
// engine, Registry.Apply and Executor.ApplyDelta for deltas, Ring.Owner
// for routing, and finally Server.ServeHTTP on a recorder for the whole
// request. With a disabled tracer the same calls run untimed, which is
// the baseline for the tracing overhead.
type replayer struct {
	t      *tracer
	cl     *cluster
	lim    *resilience.TenantLimiter
	ring   *fleet.Ring
	search map[string]searchIndex
	agree  map[string]*agreement.Analysis
	failed int
	// iterations is the mean NNMF iterations of the factorize probes.
	iterations float64
}

// searchIndex pins a search engine to the revision it indexed.
type searchIndex struct {
	rev uint64
	eng *search.Engine
}

func newReplayer(t *tracer, cl *cluster, tenants []*tenant) *replayer {
	ids := make([]string, 0, len(cl.nodes))
	for _, nd := range cl.nodes {
		ids = append(ids, nd.id)
	}
	if len(ids) == 1 {
		// A single node has no fleet; Ring.Owner is timed over the
		// three-replica ring the fleet workload uses.
		ids = []string{"n0", "n1", "n2"}
	}
	weights := map[string]float64{dataset.DefaultID: 1}
	for _, tn := range tenants {
		weights[tn.id] = 1
	}
	lim := resilience.NewTenantLimiter(server.DefaultMaxInFlight, 0)
	lim.SetTenants(weights)
	r := &replayer{t: t, cl: cl, lim: lim, ring: fleet.NewRing(ids, fleet.DefaultVirtualNodes),
		search: map[string]searchIndex{}, agree: map[string]*agreement.Analysis{}}
	for _, tn := range tenants {
		snap, _ := cl.nodes[0].srv.Datasets().Get(tn.id)
		a, err := agreement.Analyze(snap.Repo().Courses(), ontology.CS2013(), ontology.PDC12())
		if err == nil {
			r.agree[tn.id] = a
		}
	}
	return r
}

// discard is a ResponseWriter that only counts bytes.
type discard struct {
	h http.Header
	n int
}

func (d *discard) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *discard) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }
func (d *discard) WriteHeader(int)             {}

// ownerOf returns the node that owns o's fleet key (node 0 without a fleet).
func (r *replayer) ownerOf(o *op) *node {
	if len(r.cl.nodes) == 1 {
		return r.cl.nodes[0]
	}
	owner := r.cl.nodes[0].srv.Fleet().Owner(fleetKey(o))
	for _, nd := range r.cl.nodes {
		if nd.id == owner {
			return nd
		}
	}
	return r.cl.nodes[0]
}

// keyRegistry parses params for fleet keys without touching a server.
var keyRegistry, _ = analyses.Default()

// fleetKey is the ownership key the fleet hashes for o; a batch routes
// by its first item (the generator only batches items of one owner).
func fleetKey(o *op) string {
	name, values := o.analysis, o.values
	if o.kind == opBatch {
		name, values = o.items[0].Analysis, o.items[0].Values()
	}
	if a, ok := keyRegistry.Get(name); ok {
		if p, err := a.Parse(values); err == nil {
			return o.ds + "|" + engine.Key(a, p)
		}
	}
	return o.ds + "|" + o.path
}

// run replays one op.
func (r *replayer) run(o *op) {
	ctx := context.Background()
	root := r.t.begin("op")
	defer r.t.end(root)
	if o.kind == opPatch {
		r.patch(ctx, o)
		return
	}
	key := fleetKey(o)
	r.t.measure("fleet.owner", func() { _ = r.ring.Owner(key) })
	r.t.measure("resilience.admit", func() {
		if r.lim.Acquire(o.ds) == resilience.Admitted {
			r.lim.Release(o.ds)
		}
	})
	owner := r.ownerOf(o)
	var data, meta interface{}
	switch {
	case o.kind == opBatch:
		var res []engine.BatchResult
		r.t.measure("engine.batch", func() { res = owner.srv.Engine().RunBatch(ctx, o.items) })
		data, meta = res, server.BatchMeta{Items: len(res), Workers: owner.srv.Engine().BatchWorkers()}
	case o.search != nil:
		snap, _ := owner.srv.Datasets().Get(o.ds)
		idx := r.search[o.ds]
		if idx.eng == nil || idx.rev != snap.Revision() {
			r.t.measure("search.index", func() { idx = searchIndex{rev: snap.Revision(), eng: search.NewEngine(snap.Repo())} })
			r.search[o.ds] = idx
		}
		q := search.Query{Tags: o.search.tags}
		var res []search.Result
		r.t.measure("search.query", func() { res = idx.eng.Search(q) })
		data, meta = searchHits(res), server.ListMeta{Total: len(res), Limit: searchPageSize}
	case o.view == "materials":
		snap, _ := owner.srv.Datasets().Get(o.ds)
		c := snap.Repo().Course(o.course)
		data, meta = c.Materials, server.ListMeta{Total: len(c.Materials), Limit: len(c.Materials)}
	default:
		var v interface{}
		var out engine.Outcome
		var err error
		idx := r.t.measure("engine.run", func() { v, out, err = owner.srv.Engine().RunOn(ctx, o.ds, o.analysis, o.values) })
		if err != nil {
			r.failed++
			return
		}
		r.t.note(idx, out.Cache)
		data = v
		meta = server.DatasetCacheMeta{CacheMeta: server.CacheMeta{Cache: out.Cache, Key: out.Key}, Dataset: out.Dataset, Revision: out.Revision}
	}
	w := &discard{}
	enc := r.t.measure("serving.encode", func() { serving.WriteJSON(w, http.StatusOK, envelope{Data: data, Meta: meta}) })
	if enc >= 0 {
		r.t.mu.Lock()
		r.t.spans[enc].size = w.n
		r.t.mu.Unlock()
	}

	front := r.cl.nodes[o.front]
	method, body := http.MethodGet, []byte(nil)
	if o.kind == opBatch {
		method, body = http.MethodPost, o.body
	}
	req := httptest.NewRequest(method, o.path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.t.measure("server.handle", func() { front.srv.ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		r.failed++
	}
}

// patch applies a delta the way the PATCH handler does — Registry.Apply
// then Executor.ApplyDelta, on every node — and rebases the tenant's
// all-course agreement analysis by the delta's tag changes.
func (r *replayer) patch(ctx context.Context, o *op) {
	var first *dataset.Snapshot
	for _, nd := range r.cl.nodes {
		var snap *dataset.Snapshot
		var err error
		r.t.measure("dataset.apply", func() { snap, err = nd.srv.Datasets().Apply(o.ds, o.events) })
		if err != nil {
			r.failed++
			return
		}
		r.t.measure("engine.apply_delta", func() { nd.srv.Engine().ApplyDelta(ctx, o.ds, snap) })
		if first == nil {
			first = snap
		}
	}
	a := r.agree[o.ds]
	if a == nil || first.Delta() == nil {
		return
	}
	changes := map[string]agreement.TagChange{}
	for id, tc := range first.Delta().TagChanges {
		changes[id] = agreement.TagChange{Added: tc.Added, Removed: tc.Removed}
	}
	var next *agreement.Analysis
	var err error
	r.t.measure("agreement.rebase", func() { next, err = a.Rebase(first.Repo().Courses(), changes) })
	if err != nil {
		r.failed++
		return
	}
	r.agree[o.ds] = next
}

// probeFactorize calls the compute layers directly on the course ×
// curriculum matrices of the workload's types keys (at most four
// distinct group/k pairs): nnmf.Factorize (dense), nnmf.FactorizeCSR
// (the kernel the serving path uses) and factorize.AnalyzeCtx. It
// returns the mean NNMF iterations summed over restarts.
func (r *replayer) probeFactorize(ops []op) (float64, error) {
	seen := map[string]bool{}
	var iters []float64
	for i := range ops {
		o := &ops[i]
		if o.analysis != "types" || seen[o.ds+o.path] || len(seen) >= 4 {
			continue
		}
		seen[o.ds+o.path] = true
		a, _ := keyRegistry.Get("types")
		p, err := a.Parse(o.values)
		if err != nil {
			return 0, err
		}
		tp := p.(analyses.TypesParams)
		snap, _ := r.cl.nodes[0].srv.Datasets().Get(o.ds)
		courses := groupMembers(snap.Repo().Courses(), tp.Group)
		opts := factorize.PaperOptions()
		opts.K = tp.K
		dense, _ := materials.CourseMatrix(courses)
		var res *nnmf.Result
		r.t.measure("nnmf.factorize", func() { res, err = nnmf.Factorize(dense, opts) })
		if err != nil {
			return 0, fmt.Errorf("nnmf.Factorize %s: %w", o.path, err)
		}
		iters = append(iters, float64(res.TotalIterations))
		csr := matrix.FromDense(dense)
		r.t.measure("nnmf.factorize_csr", func() { _, err = nnmf.FactorizeCSR(csr, opts) })
		if err != nil {
			return 0, err
		}
		r.t.measure("factorize.analyze", func() {
			_, err = factorize.AnalyzeCtx(context.Background(), courses, tp.K, factorize.PaperOptions(), ontology.CS2013(), ontology.PDC12())
		})
		if err != nil {
			return 0, err
		}
	}
	return mean(iters), nil
}
