package serving

import (
	"container/list"
	"context"
	"sort"
	"sync"

	"csmaterials/internal/obs"
)

// Cache is a bounded LRU result cache with singleflight deduplication:
// concurrent DoCtxFn calls for the same key share one computation, and
// completed results are retained (most recently used first) up to the
// configured capacity. Errors are never cached.
//
// Alongside the fresh LRU the cache keeps a stale store of
// last-known-good values, bounded at twice the fresh capacity and
// ordered by recency of use, so an entry evicted from the fresh LRU
// remains available for degraded serving (Stale) for a while longer.
// The stale store only ever holds values that were at some point
// computed successfully.
//
// The cache is tenant-partitionable: a scope function (SetScopeFunc)
// maps every key to a scope — in the multi-dataset engine, the dataset
// ID — and each scope owns its own LRU lists, counters, and capacity
// budget. Eviction is scoped: a tenant filling its budget evicts only
// its own entries, never another tenant's. Budgets default to a fair
// share of the global capacity across the scopes declared with
// Partition and can be overridden per scope. Without a scope function
// every key lands in the single "" scope with the full capacity as its
// budget, which is exactly the pre-partitioned behaviour.
//
// A capacity <= 0 disables retention — every DoCtxFn misses and
// nothing is kept for stale serving — but singleflight deduplication
// still collapses concurrent callers.
type Cache struct {
	capacity int
	group    Group

	mu       sync.Mutex
	scopeOf  func(key string) string // nil → everything in scope ""
	scopes   map[string]*scopeStore
	declared []string       // scopes sharing the capacity (sorted)
	budgets  map[string]int // per-scope overrides

	shared uint64
}

// scopeStore is one scope's partition: its own fresh LRU, stale store,
// and accounting, so tenants cannot observe (or disturb) each other
// through shared lists or counters.
type scopeStore struct {
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	staleLL    *list.List // front = most recently written/used
	staleItems map[string]*list.Element

	hits        uint64
	misses      uint64
	evictions   uint64
	staleServed uint64
}

func newScopeStore() *scopeStore {
	return &scopeStore{
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		staleLL:    list.New(),
		staleItems: make(map[string]*list.Element),
	}
}

// Entry is one cached result: the value and its encoding as the
// "data" member of a response envelope (EncodeData form). The encoding
// is made at most once, by the first writer that asks for it (Data),
// and is shared by every copy of the entry: the callers of the flight
// that computed it, later hits, the stale copy, and the entry Rekey
// migrates to the next revision. A value nobody serves (a warm-up, a
// batch item, a refresh) is never encoded. The zero Entry and entries
// built outside the cache encode their value on every call.
type Entry struct {
	Val interface{}
	enc *encoding
}

// encoding is an Entry's lazily made, shared envelope encoding.
type encoding struct {
	once sync.Once
	data []byte
	err  error
}

// Data returns the entry's value encoded as an envelope member,
// encoding it on the first call for a cached entry and returning the
// same bytes on every later one. Callers must not modify the bytes.
func (e Entry) Data() ([]byte, error) {
	if e.enc == nil {
		return EncodeData(e.Val)
	}
	e.enc.once.Do(func() { e.enc.data, e.enc.err = EncodeData(e.Val) })
	return e.enc.data, e.enc.err
}

type cacheEntry struct {
	key string
	Entry
}

// NewCache returns a cache holding at most capacity fresh entries and
// 2*capacity stale last-known-good entries, all in one unpartitioned
// scope until SetScopeFunc/Partition carve it up.
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		scopes:   map[string]*scopeStore{},
		budgets:  map[string]int{},
	}
}

// SetScopeFunc installs the key→scope mapping used to partition the
// cache. Call it before the cache holds entries: existing entries keep
// the scope they were stored under.
func (c *Cache) SetScopeFunc(f func(key string) string) {
	c.mu.Lock()
	c.scopeOf = f
	c.mu.Unlock()
}

// Partition declares the scopes that share the global capacity and the
// per-scope budget overrides (entries; scopes absent from overrides get
// a fair share of what the overrides leave). It is called again
// whenever the tenant set changes; shrunken budgets are enforced
// immediately, evicting over-budget entries scope by scope.
func (c *Cache) Partition(scopes []string, overrides map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.declared = append([]string(nil), scopes...)
	sort.Strings(c.declared)
	c.budgets = make(map[string]int, len(overrides))
	for s, b := range overrides {
		if b > 0 {
			c.budgets[s] = b
		}
	}
	for scope, st := range c.scopes {
		c.enforceLocked(scope, st)
	}
}

// scopeLocked resolves key's scope and returns its store, creating the
// partition on first touch; callers hold c.mu.
func (c *Cache) scopeLocked(key string) (string, *scopeStore) {
	scope := ""
	if c.scopeOf != nil {
		scope = c.scopeOf(key)
	}
	st, ok := c.scopes[scope]
	if !ok {
		st = newScopeStore()
		c.scopes[scope] = st
	}
	return scope, st
}

// budgetLocked is scope's fresh-entry budget: its override when one is
// set, otherwise an equal share of the capacity the overrides leave
// free, split across the declared scopes without overrides (never below
// one entry, so a tenant can always retain something). With no declared
// scopes — the unpartitioned, single-tenant case — the budget is the
// whole capacity. Callers hold c.mu.
func (c *Cache) budgetLocked(scope string) int {
	if b, ok := c.budgets[scope]; ok {
		return b
	}
	if len(c.declared) == 0 {
		return c.capacity
	}
	reserved, unoverridden := 0, 0
	for _, s := range c.declared {
		if b, ok := c.budgets[s]; ok {
			reserved += b
		} else {
			unoverridden++
		}
	}
	if unoverridden == 0 {
		unoverridden = 1 // undeclared scope asking: act like one claimant
	}
	share := (c.capacity - reserved) / unoverridden
	if share < 1 {
		share = 1
	}
	return share
}

// enforceLocked evicts scope's least-recently-used entries until it is
// within budget (fresh) and twice budget (stale); callers hold c.mu.
func (c *Cache) enforceLocked(scope string, st *scopeStore) {
	budget := c.budgetLocked(scope)
	for st.ll.Len() > budget {
		oldest := st.ll.Back()
		st.ll.Remove(oldest)
		delete(st.items, oldest.Value.(*cacheEntry).key)
		st.evictions++
	}
	for st.staleLL.Len() > 2*budget {
		oldest := st.staleLL.Back()
		st.staleLL.Remove(oldest)
		delete(st.staleItems, oldest.Value.(*cacheEntry).key)
	}
}

// Get returns the cached entry for key, marking it most recently used.
func (c *Cache) Get(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st := c.scopeLocked(key)
	if el, ok := st.items[key]; ok {
		st.ll.MoveToFront(el)
		touchStale(st, key) // keep the stale copy as warm as the fresh one
		st.hits++
		return el.Value.(*cacheEntry).Entry, true
	}
	st.misses++
	return Entry{}, false
}

// put stores key→e in its scope's fresh LRU and stale store,
// evicting least-recently-used entries of THAT SCOPE when over its
// budget.
func (c *Cache) put(key string, e Entry) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	scope, st := c.scopeLocked(key)
	putStale(st, key, e)
	if el, ok := st.items[key]; ok {
		el.Value.(*cacheEntry).Entry = e
		st.ll.MoveToFront(el)
		c.enforceLocked(scope, st)
		return
	}
	st.items[key] = st.ll.PushFront(&cacheEntry{key: key, Entry: e})
	c.enforceLocked(scope, st)
}

// putStale upserts key→e into the scope's stale store; callers hold
// c.mu (the bound is enforced by enforceLocked).
func putStale(st *scopeStore, key string, e Entry) {
	if el, ok := st.staleItems[key]; ok {
		el.Value.(*cacheEntry).Entry = e
		st.staleLL.MoveToFront(el)
		return
	}
	st.staleItems[key] = st.staleLL.PushFront(&cacheEntry{key: key, Entry: e})
}

// touchStale marks key's stale copy recently used; callers hold c.mu.
func touchStale(st *scopeStore, key string) {
	if el, ok := st.staleItems[key]; ok {
		st.staleLL.MoveToFront(el)
	}
}

// Stale returns the last-known-good entry for key from its scope's
// stale store, counting a stale serve when found. Callers use it as the
// degraded fallback after DoCtxFn failed (or was rejected by an open
// circuit); a found entry is marked recently used so actively
// degraded keys are the last to fall out.
func (c *Cache) Stale(key string) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, st := c.scopeLocked(key)
	if el, ok := st.staleItems[key]; ok {
		st.staleLL.MoveToFront(el)
		st.staleServed++
		return el.Value.(*cacheEntry).Entry, true
	}
	return Entry{}, false
}

// DoCtxFn returns the cached entry for key or computes it,
// deduplicating concurrent computations for the same key through the
// singleflight group. Every caller sharing a flight receives the same
// entry, and with it the one encoding of its value (Entry.Data). The
// boolean reports whether the value was served without running compute
// in this call (a cache hit or a shared flight).
//
// The compute function receives the FLIGHT context, not any one
// caller's: while at least one caller is still waiting the flight stays
// live, so a disconnecting client can neither poison nor cancel the
// entry for everyone else (the cancelled caller itself receives
// ctx.Err()). Only when the last waiter departs is the flight context
// cancelled, letting a context-aware compute stop mid-iteration instead
// of converging for nobody. Successful results are cached either way;
// errors never are.
// The ladder is traced when ctx carries an obs.Trace: the lookup is
// recorded as a cache-hit/cache-miss span, the flight that actually
// computes records singleflight-lead and store spans into ITS
// initiator's trace (joiners' compute closures never run), and a
// caller that shared another flight records a singleflight-join span
// covering its wait. Untraced contexts skip all of it.
func (c *Cache) DoCtxFn(ctx context.Context, key string, compute func(context.Context) (interface{}, error)) (Entry, bool, error) {
	lookup := obs.StartSpan(ctx, "cache-lookup")
	if e, ok := c.Get(key); ok {
		lookup.EndAs("cache-hit")
		return e, true, nil
	}
	lookup.EndAs("cache-miss")
	sfStart := obs.Now(ctx)
	v, err, sharedFlight := c.group.DoCtxFn(ctx, key, func(fctx context.Context) (interface{}, error) {
		// This closure runs only for the caller that initiated the
		// flight, so recording into ctx's trace is recording the lead.
		lead := obs.StartSpan(ctx, "singleflight-lead")
		v, err := compute(fctx)
		var e Entry
		if err == nil {
			st := obs.StartSpan(ctx, "store")
			e = Entry{Val: v, enc: &encoding{}}
			c.put(key, e)
			st.End()
		}
		lead.End()
		return e, err
	})
	if sharedFlight {
		obs.AddSpan(ctx, "singleflight-join", sfStart)
		c.mu.Lock()
		c.shared++
		c.mu.Unlock()
	}
	if err != nil {
		return Entry{}, sharedFlight, err
	}
	return v.(Entry), sharedFlight, nil
}

// Flight returns a channel that is closed when the computation in
// flight for key ends — after its result, if any, is stored — or nil
// when none is running. It lets a caller that left a flight early act
// once the flight can no longer write to the cache.
func (c *Cache) Flight(key string) <-chan struct{} { return c.group.inFlight(key) }

// DroppedEntry is one entry removed by a Rekey sweep, returned to the
// caller because it is no longer reachable through the cache — the
// delta-refresh path reuses dropped values as warm-start priors.
type DroppedEntry struct {
	Key   string
	Val   interface{}
	Stale bool
}

// Rekeyed summarizes a Rekey sweep.
type Rekeyed struct {
	MovedFresh   int
	MovedStale   int
	DroppedFresh int
	DroppedStale int
}

// Rekey is the cache's one sweep: for every fresh and stale entry,
// mapper(key) returns the entry's new key — the same key to leave it
// untouched, "" to drop it, or a different key to migrate the entry in
// place. A dropped key is gone from both stores, so it cannot resurface
// as a degraded last-known-good serve; scope counters are untouched (a
// sweep is a corpus event, not a tenant teardown — that is DropScope),
// and in-flight computations still complete and store under their own
// keys. This is how a revision bump carries provably unaffected
// results forward: the value survives under the new revision's key,
// keeping its LRU position, instead of being thrown away and
// recomputed. If the new key already exists the existing
// entry wins and the source is dropped; an entry whose new key maps to
// a different scope is re-inserted there (most recently used) under
// that scope's budget. mapper must be pure and fast — it runs under
// the cache lock. Dropped entries are returned for reuse.
func (c *Cache) Rekey(mapper func(key string) string) (Rekeyed, []DroppedEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum Rekeyed
	var dropped []DroppedEntry
	for scope, st := range c.scopes {
		c.rekeyList(scope, st, false, mapper, &sum, &dropped)
		c.rekeyList(scope, st, true, mapper, &sum, &dropped)
	}
	return sum, dropped
}

// rekeyList applies mapper to one scope's fresh or stale list; callers
// hold c.mu.
func (c *Cache) rekeyList(scope string, st *scopeStore, stale bool, mapper func(key string) string, sum *Rekeyed, dropped *[]DroppedEntry) {
	ll, items := st.ll, st.items
	if stale {
		ll, items = st.staleLL, st.staleItems
	}
	countMove, countDrop := &sum.MovedFresh, &sum.DroppedFresh
	if stale {
		countMove, countDrop = &sum.MovedStale, &sum.DroppedStale
	}
	for el := ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		newKey := mapper(e.key)
		switch {
		case newKey == e.key:
			// untouched
		case newKey == "":
			ll.Remove(el)
			delete(items, e.key)
			*countDrop++
			*dropped = append(*dropped, DroppedEntry{Key: e.key, Val: e.Val, Stale: stale})
		default:
			target := scope
			if c.scopeOf != nil {
				target = c.scopeOf(newKey)
			}
			tst := st
			if target != scope {
				ts, ok := c.scopes[target]
				if !ok {
					ts = newScopeStore()
					c.scopes[target] = ts
				}
				tst = ts
			}
			tItems := tst.items
			if stale {
				tItems = tst.staleItems
			}
			if _, exists := tItems[newKey]; exists {
				ll.Remove(el)
				delete(items, e.key)
				*countDrop++
				*dropped = append(*dropped, DroppedEntry{Key: e.key, Val: e.Val, Stale: stale})
				break
			}
			delete(items, e.key)
			if tst == st {
				e.key = newKey
				items[newKey] = el
			} else {
				ll.Remove(el)
				e.key = newKey
				if stale {
					tst.staleItems[newKey] = tst.staleLL.PushFront(e)
				} else {
					tst.items[newKey] = tst.ll.PushFront(e)
				}
				c.enforceLocked(target, tst)
			}
			*countMove++
		}
		el = next
	}
}

// DropScope tears down one scope's whole partition — fresh entries,
// stale entries, AND counters — returning the number of entries
// dropped. This is the tenant-deletion path: after it, snapshots and
// /metrics no longer report the scope at all, rather than carrying a
// ghost tenant's stats forever.
func (c *Cache) DropScope(scope string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.scopes[scope]
	if !ok {
		return 0
	}
	n := st.ll.Len() + st.staleLL.Len()
	delete(c.scopes, scope)
	return n
}

// Reset drops all retained fresh entries in every scope; the stale
// last-known-good stores and the counters are preserved, so a reset
// (like any other fresh-cache miss) can still degrade to stale serving.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.scopes {
		st.ll.Init()
		st.items = make(map[string]*list.Element)
	}
}

// ScopeCacheStats is one scope's slice of the cache accounting.
type ScopeCacheStats struct {
	Budget      int    `json:"budget"`
	Size        int    `json:"size"`
	StaleSize   int    `json:"stale_size"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Evictions   uint64 `json:"evictions"`
	StaleServed uint64 `json:"stale_served"`
}

// CacheStats is a point-in-time snapshot of the cache counters. The
// top-level fields aggregate across scopes; Scopes breaks the same
// accounting down per named partition (absent while the cache is
// unpartitioned, so the single-tenant snapshot keeps its old shape).
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Shared      uint64 `json:"shared_flights"`
	Evictions   uint64 `json:"evictions"`
	Size        int    `json:"size"`
	Capacity    int    `json:"capacity"`
	StaleSize   int    `json:"stale_size"`
	StaleServed uint64 `json:"stale_served"`

	Scopes map[string]ScopeCacheStats `json:"scopes,omitempty"`
}

// Stats snapshots the hit/miss/eviction/stale accounting, aggregated
// and per scope.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := CacheStats{Capacity: c.capacity, Shared: c.shared}
	for scope, st := range c.scopes {
		out.Hits += st.hits
		out.Misses += st.misses
		out.Evictions += st.evictions
		out.Size += st.ll.Len()
		out.StaleSize += st.staleLL.Len()
		out.StaleServed += st.staleServed
		if scope == "" {
			continue // the unpartitioned scope is the aggregate itself
		}
		if out.Scopes == nil {
			out.Scopes = make(map[string]ScopeCacheStats)
		}
		out.Scopes[scope] = ScopeCacheStats{
			Budget:      c.budgetLocked(scope),
			Size:        st.ll.Len(),
			StaleSize:   st.staleLL.Len(),
			Hits:        st.hits,
			Misses:      st.misses,
			Evictions:   st.evictions,
			StaleServed: st.staleServed,
		}
	}
	return out
}

// ScopeBudget reports the current fresh-entry budget of scope (the
// override when set, the fair share otherwise).
func (c *Cache) ScopeBudget(scope string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budgetLocked(scope)
}
