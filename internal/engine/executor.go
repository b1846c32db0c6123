package engine

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"csmaterials/internal/dataset"
	"csmaterials/internal/materials"
	"csmaterials/internal/obs"
	"csmaterials/internal/resilience"
	"csmaterials/internal/resilience/faultinject"
	"csmaterials/internal/serving"
)

// ExecutorOptions configures an Executor.
type ExecutorOptions struct {
	// Datasets is the dataset registry; required. Every run resolves
	// its repository through it, cache keys carry a
	// "<dataset>@<revision>|" generation prefix, and breakers, stats,
	// and fault labels partition per (dataset, analysis). A CLI that
	// serves only the seed corpus passes dataset.NewRegistry(nil).
	Datasets *dataset.Registry
	// Cache is the result cache + singleflight group; required.
	Cache *serving.Cache
	// Breakers is the per-(dataset, analysis) circuit-breaker set; nil
	// disables circuit breaking.
	Breakers *resilience.BreakerSet
	// Faults injects chaos into compute paths under the label
	// "compute/<scope>"; nil injects nothing.
	Faults *faultinject.Injector
	// StaleServe enables the last-known-good fallback when a compute
	// fails, times out, or is circuit-broken.
	StaleServe bool
}

// Outcome describes how a Run was answered, for the response meta.
type Outcome struct {
	// Key is the logical cache key, "<name>|<params.CacheKey()>" — the
	// client-facing identity of the computation, identical across
	// datasets and revisions. The physical cache key adds the
	// "<dataset>@<revision>|" generation prefix.
	Key string
	// Dataset is the dataset the computation resolved against.
	Dataset string
	// Revision is the dataset revision served.
	Revision uint64
	// Cache is "hit" (retained entry or shared flight), "miss" (this
	// call computed), or "stale" (degraded last-known-good serve).
	Cache string
	// Stale marks a degraded response.
	Stale bool
	// Entry is the cache entry that answered: the value and its
	// envelope encoding, made once and shared by every request that
	// writes it (serving.Entry.Data).
	Entry serving.Entry
}

// analysisStats counts per-scope executor activity.
type analysisStats struct {
	computes    uint64
	failures    uint64
	staleServed uint64
	hits        uint64
	misses      uint64
}

// AnalysisStats is the JSON form of one scope's executor counters. The
// map key is the scope name: the bare analysis name for the default
// dataset, "<dataset>/<analysis>" otherwise — so per-dataset serving
// behaviour is separable in /debug/metrics and /metrics.
type AnalysisStats struct {
	Computes    uint64 `json:"computes"`
	Failures    uint64 `json:"failures"`
	StaleServed uint64 `json:"stale_served"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// Stats is the executor section of /debug/metrics: per-scope compute
// accounting plus batch totals.
type Stats struct {
	Analyses map[string]AnalysisStats `json:"analyses"`
	// Refresh breaks down invalidation and warm-start recompute
	// activity per dataset (absent until a refresh or warm compute
	// happens).
	Refresh      map[string]RefreshStats `json:"refresh,omitempty"`
	BatchCalls   uint64                  `json:"batch_calls"`
	BatchItems   uint64                  `json:"batch_items"`
	BatchWorkers int                     `json:"batch_workers"`
}

// Executor runs registered analyses through the serving ladder: fresh
// cache → breaker-guarded singleflight compute → stale last-known-good
// fallback. Every surface (HTTP handlers, the batch endpoint, warmup,
// CLIs) goes through the same entry points, so the semantics of a
// cache key, a breaker, or a stale serve cannot diverge per caller.
//
// The ladder is partitioned per dataset: RunOn/RunParamsOn resolve a
// snapshot from the registry, physical cache keys carry the snapshot's
// revision (so an ingest can never race an in-flight compute into a
// torn or cross-revision read), and breakers/stats/fault labels are
// scoped "<dataset>/<analysis>" for non-default datasets.
type Executor struct {
	reg        *Registry
	datasets   *dataset.Registry
	cache      *serving.Cache
	breakers   *resilience.BreakerSet
	faults     *faultinject.Injector
	staleServe bool

	batchWorkers int

	// detached tracks the goroutines that outlive the request that
	// started them: stale refreshes and the serving-state checks that
	// wait out abandoned flights (WaitDetached).
	detached sync.WaitGroup

	mu         sync.Mutex
	stats      map[string]*analysisStats
	refresh    map[string]*refreshStats
	priors     map[string]priorEntry
	batchCalls uint64
	batchItems uint64
}

// NewExecutor builds an executor over the registry. When o.Breakers is
// set, a breaker is materialized for every registered analysis (under
// the default dataset's scope) up front, so readiness and metrics
// report the full set from the first request rather than growing it
// lazily; non-default dataset scopes materialize on first use.
func NewExecutor(reg *Registry, o ExecutorOptions) *Executor {
	e := &Executor{
		reg:          reg,
		datasets:     o.Datasets,
		cache:        o.Cache,
		breakers:     o.Breakers,
		faults:       o.Faults,
		staleServe:   o.StaleServe,
		batchWorkers: DefaultBatchWorkers,
		stats:        make(map[string]*analysisStats),
		refresh:      make(map[string]*refreshStats),
		priors:       make(map[string]priorEntry),
	}
	if e.breakers != nil {
		for _, name := range reg.Names() {
			e.breakers.Get(name)
		}
	}
	// Physical keys carry the dataset generation prefix, so the cache
	// can partition its budget per dataset: one tenant's fill evicts
	// only that tenant's entries.
	e.cache.SetScopeFunc(datasetScope)
	return e
}

// Registry exposes the analysis registry.
func (e *Executor) Registry() *Registry { return e.reg }

// scopeName is the per-(dataset, analysis) identifier used for
// breakers, executor stats, and fault labels. The default dataset
// keeps the bare analysis name — unchanged from the single-dataset
// era — so existing dashboards and envelopes stay byte-identical;
// other datasets are "<dataset>/<analysis>" ('/' cannot occur in
// either part).
func scopeName(ds, name string) string {
	if ds == dataset.DefaultID {
		return name
	}
	return ds + "/" + name
}

// SplitScope is the inverse of the executor's scope naming: it splits
// a breaker/stats key into its (dataset, analysis) parts, mapping bare
// names to the default dataset.
func SplitScope(scope string) (ds, analysis string) {
	if i := strings.IndexByte(scope, '/'); i >= 0 {
		return scope[:i], scope[i+1:]
	}
	return dataset.DefaultID, scope
}

// resolve maps a dataset ID to the repository and revision a run
// computes over.
func (e *Executor) resolve(ds string) (*materials.Repository, uint64, error) {
	if err := dataset.ValidateID(ds); err != nil {
		return nil, 0, Errorf(400, "bad_request", "%s", err.Error())
	}
	snap, ok := e.datasets.Get(ds)
	if !ok {
		return nil, 0, Errorf(404, "not_found", "unknown dataset %q", ds)
	}
	return snap.Repo(), snap.Revision(), nil
}

// physicalKey derives the cache/singleflight/stale key from the
// logical key by prefixing the dataset generation
// ("<dataset>@<revision>|"), so a re-ingested revision can never
// collide with entries — or in-flight computes — of a previous one,
// and invalidation can target exactly one dataset's entries.
func physicalKey(ds string, rev uint64, logical string) string {
	return ds + "@" + strconv.FormatUint(rev, 10) + "|" + logical
}

// datasetScope maps a physical cache key to the dataset that owns it:
// the "<dataset>@<revision>|<logical>" generation prefix identifies
// the tenant ('@' cannot occur in a dataset ID).
func datasetScope(key string) string {
	ds, _, _ := strings.Cut(key, "@")
	return ds
}

// RetryAfterOn returns the wait hinted to clients rejected by the open
// circuit of (ds, name) (zero without breakers).
func (e *Executor) RetryAfterOn(ds, name string) time.Duration {
	if e.breakers == nil {
		return 0
	}
	return e.breakers.Get(scopeName(ds, name)).RetryAfter()
}

// Run executes the named analysis against the default dataset.
func (e *Executor) Run(ctx context.Context, name string, values url.Values) (interface{}, Outcome, error) {
	return e.RunOn(ctx, dataset.DefaultID, name, values)
}

// RunOn parses values against the named analysis and executes it
// against dataset ds through the ladder. Unknown names and datasets
// are 404 *Errors; malformed dataset IDs and parse/validation failures
// are 400 *Errors unless the analysis supplied its own status.
func (e *Executor) RunOn(ctx context.Context, ds, name string, values url.Values) (interface{}, Outcome, error) {
	a, ok := e.reg.Get(name)
	if !ok {
		return nil, Outcome{}, Errorf(404, "not_found", "unknown analysis %q", name)
	}
	ctx = obs.WithAnalysis(ctx, name)
	if e.registered(ds) {
		// Parse errors outrank an unknown dataset, so parsing runs first;
		// only a registered dataset may label its span, or every junk ID
		// would grow its own stage series.
		ctx = obs.WithDataset(ctx, ds)
	}
	sp := obs.StartSpan(ctx, "parse")
	p, err := e.ParseParams(a, values)
	if err != nil {
		sp.EndAs("parse-error")
		return nil, Outcome{}, err
	}
	sp.End()
	return e.RunParamsOn(ctx, ds, a, p)
}

// ParseParams parses and validates values for a, normalizing non-Error
// failures to 400 bad_request.
func (e *Executor) ParseParams(a Analysis, values url.Values) (Params, error) {
	p, err := a.Parse(values)
	if err != nil {
		return nil, asBadRequest(err)
	}
	if err := p.Validate(); err != nil {
		return nil, asBadRequest(err)
	}
	return p, nil
}

func asBadRequest(err error) error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	return &Error{Status: 400, Code: "bad_request", Message: err.Error()}
}

// Key returns the logical cache key of (a, p).
func Key(a Analysis, p Params) string {
	if ck := p.CacheKey(); ck != "" {
		return a.Name() + "|" + ck
	}
	return a.Name()
}

// FleetKeyOn returns the cluster ownership key for one analysis
// request: "<dataset>|<logical key>". It is the physical cache key
// minus the revision — each replica runs its own revision counters, so
// including them would make replicas disagree about ownership; the
// logical triple (dataset, analysis, paramKey) is what must hash
// identically everywhere. Unknown analyses and invalid params return
// the same *Error the serving path would, so callers can fall through
// to local handling for the canonical error envelope.
func (e *Executor) FleetKeyOn(ds, name string, values url.Values) (string, error) {
	a, ok := e.reg.Get(name)
	if !ok {
		return "", Errorf(404, "not_found", "unknown analysis %q", name)
	}
	p, err := e.ParseParams(a, values)
	if err != nil {
		return "", err
	}
	return ds + "|" + Key(a, p), nil
}

// RunParamsOn executes a with validated params against dataset ds
// through the full ladder.
//
// The compute runs under the singleflight FLIGHT context: concurrent
// equal requests share one computation, a departing caller cannot
// cancel it for the others, and when the last caller departs the
// flight context is cancelled so Compute stops burning CPU. Cancelled
// computes are not failures: they never trip the breaker and are never
// cached.
//
// Dataset isolation: the snapshot (repository + revision) is resolved
// once, before the ladder, and the revision is baked into the physical
// cache key. A concurrent ingest swaps the registry's snapshot pointer
// but cannot touch this run — it computes over its resolved snapshot
// and stores under its resolved revision's key, which post-ingest
// requests (holding the new revision) never read. There is no torn
// read and no cross-revision stale serve.
//
// On a compute failure, timeout, or open circuit, a stale
// last-known-good value (same dataset, same revision) is returned
// (Outcome.Stale set) when stale serving is enabled and one exists,
// while a breaker-gated refresh runs detached in the background.
// Otherwise the error comes back: resilience.ErrOpen, context errors,
// an *Error from the analysis, or the raw compute error.
// Tracing: when ctx carries an obs.Trace, the ladder walk is recorded
// as ordered spans — the breaker decision (breaker-allow/breaker-open),
// the compute (compute/compute-error/compute-canceled), plus the
// cache-level spans serving.Cache emits — all labelled with the
// analysis name and dataset ID for the per-stage histograms. The
// guarded closure records into the trace of the request that INITIATED
// the flight (the closure only runs for that caller), never into a
// joiner's; the detached stale refresh runs a variant bound to an
// untraced context, so a request's trace record never grows after it
// is served.
func (e *Executor) RunParamsOn(ctx context.Context, ds string, a Analysis, p Params) (interface{}, Outcome, error) {
	repo, rev, err := e.resolve(ds)
	if err != nil {
		return nil, Outcome{}, err
	}
	name := a.Name()
	ctx = obs.WithAnalysis(obs.WithDataset(ctx, ds), name)
	logical := Key(a, p)
	key := physicalKey(ds, rev, logical)
	defer e.forgetIfDeletedAfterFlight(ds, key)
	scope := scopeName(ds, name)
	var br *resilience.Breaker
	if e.breakers != nil {
		br = e.breakers.Get(scope)
	}
	// guardedWith binds the breaker-guarded compute to a trace context
	// (tctx carries the span sink; fctx carries cancellation).
	guardedWith := func(tctx context.Context) func(context.Context) (interface{}, error) {
		return func(fctx context.Context) (interface{}, error) {
			bsp := obs.StartSpan(tctx, "breaker")
			if br != nil && !br.Allow() {
				bsp.EndAs("breaker-open")
				return nil, resilience.ErrOpen
			}
			bsp.EndAs("breaker-allow")
			err := e.faults.ComputeError("compute/" + scope)
			var v interface{}
			if err == nil {
				csp := obs.StartSpan(tctx, "compute")
				e.countCompute(scope)
				var warm bool
				v, warm, err = e.computeWithPrior(fctx, ds, a, repo, p, key)
				switch {
				case err == nil && warm:
					e.recordIterations(ds, true, v)
					csp.EndAs("compute-warm")
				case err == nil:
					e.recordIterations(ds, false, v)
					csp.End()
				case errors.Is(err, context.Canceled):
					csp.EndAs("compute-canceled")
				default:
					csp.EndAs("compute-error")
				}
			}
			if br != nil {
				br.Record(!IsServerFailure(err))
			}
			if IsServerFailure(err) {
				e.countFailure(scope)
			}
			return v, err
		}
	}
	guarded := guardedWith(ctx)

	ent, served, err := e.cache.DoCtxFn(ctx, key, guarded)
	if err == nil {
		out := Outcome{Key: logical, Dataset: ds, Revision: rev, Cache: "miss", Entry: ent}
		if served {
			out.Cache = "hit"
			e.countHit(scope)
		} else {
			e.countMiss(scope)
		}
		return ent.Val, out, nil
	}
	if errors.Is(err, context.Canceled) {
		// Every waiter left; there is nobody to answer and nothing to
		// degrade for.
		return nil, Outcome{}, err
	}

	if e.staleServe && (errors.Is(err, resilience.ErrOpen) || errors.Is(err, context.DeadlineExceeded) || IsServerFailure(err)) {
		if sv, ok := e.cache.Stale(key); ok {
			e.countStale(scope)
			obs.AddSpan(ctx, "stale-serve", time.Time{})
			obs.AddSpan(ctx, "stale-refresh", time.Time{}) // detached refresh launched
			// Seed the refresh with the value being served: the key is
			// revision-scoped, so the repository is unchanged and a
			// warm-startable analysis can converge from the last-known-good
			// result in a probe iteration instead of a cold solve (delta
			// nil: same revision). Non-warmable analyses ignore the seed.
			e.seedPrior(key, sv.Val, nil, true)
			refresh := guardedWith(context.Background()) // lint:detach DESIGN §9: the stale refresh must outlive the request that tripped it
			e.detached.Add(1)
			go func() {
				defer e.detached.Done()
				defer e.forgetIfDeleted(ds)
				// This waiter never leaves, so the flight context stays
				// live until the refresh completes.
				_, _, _ = e.cache.DoCtxFn(context.Background(), key, refresh) // lint:detach same blessed refresh, inside the detached flight
			}()
			return sv.Val, Outcome{Key: logical, Dataset: ds, Revision: rev, Cache: "stale", Stale: true, Entry: sv}, nil
		}
	}
	return nil, Outcome{}, err
}

// WaitDetached blocks until every detached goroutine started so far
// has finished: each stale refresh, and each check that waits out a
// flight its callers abandoned (see forgetIfDeletedAfterFlight). A
// refresh takes the breaker's half-open probe when it runs, so callers
// that reason about the breaker (graceful drain, tests) wait here
// first. Starting detached work concurrently with a wait that finds
// none running is the caller's race to avoid.
func (e *Executor) WaitDetached() { e.detached.Wait() }

// WarmDataset pre-computes every registered Warmer analysis's
// WarmParams against dataset ds in registration order, returning the
// first failure. The results land in the cache under the exact
// (dataset, revision)-scoped keys live requests use, so the first real
// request after readiness — or after an ingest — is a hit. Each
// dataset's warmup budget is its own: warming one dataset never
// touches another's entries or breakers.
func (e *Executor) WarmDataset(ctx context.Context, ds string) error {
	for _, name := range e.reg.Names() {
		a, ok := e.reg.Get(name)
		if !ok {
			continue
		}
		w, ok := a.(Warmer)
		if !ok {
			continue
		}
		for _, p := range w.WarmParams() {
			if err := p.Validate(); err != nil {
				return err
			}
			if _, _, err := e.RunParamsOn(ctx, ds, a, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// InvalidateDataset drops every cache and stale entry belonging to ds
// except those of revision keep (pass the just-ingested revision, or 0
// to purge everything), returning the fresh and stale entries dropped
// apart: a scope can hold stale-only entries whose fresh copies were
// already evicted, and the stale count proves the sweep reached them.
// Called after an ingest swaps the snapshot, it also sweeps entries
// stored by computes that were in flight across the swap — their keys
// carry the old revision and can never be read again.
func (e *Executor) InvalidateDataset(ds string, keep uint64) (fresh, stale int) {
	prefix := ds + "@"
	keepPrefix := fmt.Sprintf("%s@%d|", ds, keep)
	sum, _ := e.cache.Rekey(func(key string) string {
		if strings.HasPrefix(key, prefix) && (keep == 0 || !strings.HasPrefix(key, keepPrefix)) {
			return ""
		}
		return key
	})
	return sum.DroppedFresh, sum.DroppedStale
}

// DropDatasetServingState removes every trace of ds from the serving
// layer on dataset DELETE: cache entries AND the scope's cache
// counters (a deleted tenant must vanish from /debug/metrics and the
// csm_ families, not linger at its last values), executor stats
// scopes, and "<ds>/<analysis>" breakers. Returns the number of cache
// entries (fresh + stale) dropped. The default dataset's serving state
// is never dropped here — it cannot be deleted.
func (e *Executor) DropDatasetServingState(ds string) int {
	if ds == dataset.DefaultID {
		return 0
	}
	n := e.cache.DropScope(ds)
	if e.breakers != nil {
		e.breakers.DropPrefix(ds + "/")
	}
	e.mu.Lock()
	for scope := range e.stats {
		if d, _ := SplitScope(scope); d == ds {
			delete(e.stats, scope)
		}
	}
	delete(e.refresh, ds)
	prefix := ds + "@"
	for k := range e.priors {
		if strings.HasPrefix(k, prefix) {
			delete(e.priors, k)
		}
	}
	e.mu.Unlock()
	return n
}

// registered reports whether ds names a dataset in the registry.
func (e *Executor) registered(ds string) bool {
	_, ok := e.datasets.Get(ds)
	return ok
}

// forgetIfDeleted drops ds's serving state again when ds is no longer
// registered. A run that resolved ds before a DELETE can store, count,
// or seed a prior after DropDatasetServingState swept the dataset;
// runs call this once they have done all of that, so a late completion
// cannot bring the deleted dataset's state back.
func (e *Executor) forgetIfDeleted(ds string) {
	if !e.registered(ds) {
		e.DropDatasetServingState(ds)
	}
}

// forgetIfDeletedAfterFlight is forgetIfDeleted for a run over key: it
// checks at once when no flight for key is running, and otherwise once
// that flight has ended. A run whose callers all left returns while
// its flight goes on — a compute that ignores its context still
// counts, records and stores under ds when it finishes — so the check
// waits for the flight, on a detached goroutine, rather than for the
// callers.
func (e *Executor) forgetIfDeletedAfterFlight(ds, key string) {
	done := e.cache.Flight(key)
	if done == nil {
		e.forgetIfDeleted(ds)
		return
	}
	e.detached.Add(1)
	go func() {
		defer e.detached.Done()
		<-done
		e.forgetIfDeleted(ds)
	}()
}

func (e *Executor) countCompute(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).computes++
}

func (e *Executor) countFailure(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).failures++
}

func (e *Executor) countStale(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).staleServed++
}

func (e *Executor) countHit(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).hits++
}

func (e *Executor) countMiss(scope string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.statLocked(scope).misses++
}

// statLocked returns scope's counters; callers hold e.mu.
func (e *Executor) statLocked(scope string) *analysisStats {
	s, ok := e.stats[scope]
	if !ok {
		s = &analysisStats{}
		e.stats[scope] = s
	}
	return s
}

// Stats snapshots the executor counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Stats{
		Analyses:     make(map[string]AnalysisStats, len(e.stats)),
		BatchCalls:   e.batchCalls,
		BatchItems:   e.batchItems,
		BatchWorkers: e.batchWorkers,
	}
	for scope, s := range e.stats {
		out.Analyses[scope] = AnalysisStats{
			Computes:    s.computes,
			Failures:    s.failures,
			StaleServed: s.staleServed,
			CacheHits:   s.hits,
			CacheMisses: s.misses,
		}
	}
	for ds, s := range e.refresh {
		if out.Refresh == nil {
			out.Refresh = make(map[string]RefreshStats, len(e.refresh))
		}
		out.Refresh[ds] = RefreshStats{
			Delta:            s.delta,
			Full:             s.full,
			InvalidatedFresh: s.invalidatedFresh,
			InvalidatedStale: s.invalidatedStale,
			Migrated:         s.migrated,
			Seeded:           s.seeded,
			WarmStarts:       s.warmStarts,
			WarmFallbacks:    s.warmFallbacks,
			WarmIterations:   s.warmIterations,
			ColdIterations:   s.coldIterations,
		}
	}
	return out
}
