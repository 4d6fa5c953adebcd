// Package plancache caches the query front-end's work — parse and
// predicate key encoding — so the repeated statements of an exploratory
// workload (the SkyServer pattern the paper targets: the same dashboard
// and zoom queries arriving over and over) go straight to the morsel
// executor.
//
// There is one tier: the raw SQL string, byte for byte, maps to its
// plan. A hit is the zero-allocation path — one read-locked map probe,
// an atomic access stamp, a table identity check. Any other spelling,
// however close, is a miss and pays one sqlparse.Parse: about a
// microsecond, under 0.2 % of a request in the benchmark's per-stage
// budget, which is why nothing cleverer sits here.
//
// Identity discipline follows the recycler's: plans embed the table's
// (ID, Version) pair. A version bump (every load) makes every plan for
// that table stale; staleness is caught lazily, at lookup, by comparing
// against the live table. Stale plans nobody asks for again age out
// through the LRU-by-bytes budget over plan cost (SQL string + a fixed
// AST estimate). Access recency comes from an atomic logical clock so
// the hit path never takes the write lock.
package plancache

import (
	"sort"
	"sync"
	"sync/atomic"

	"sciborq/internal/faultinject"
	"sciborq/internal/recycler"
	"sciborq/internal/sqlparse"
)

// DefaultBudget bounds the cache to 8 MiB of plan bytes by default —
// thousands of distinct statement spellings.
const DefaultBudget = 8 << 20

// planOverhead is the charged estimate for a plan's AST, prepared
// predicate, and bookkeeping beyond its SQL string.
const planOverhead = 512

// Plan is one cached, immutable execution plan: the parsed statement
// plus every front-end derivation execution needs. All fields are
// read-only after Admit; the statement is shared by concurrent queries.
type Plan struct {
	// Table is the target table name; TableID/TableVer the identity the
	// plan was built against.
	Table    string
	TableID  uint64
	TableVer uint64
	// Statement is the parsed statement. Executions share it; the
	// engine takes Query by value and never mutates the shared slices.
	Statement *sqlparse.Statement
	// Prep is the recycler-ready canonicalised WHERE predicate.
	Prep recycler.Prepared

	sql   string // the spelling this plan is cached under
	bytes int64
	stamp atomic.Int64 // logical access clock; LRU evicts the smallest
}

// Stats reports one tenant's (or the aggregate "" tenant's) cache
// effectiveness.
type Stats struct {
	// Hits counts lookups served from the cache: no parse, no allocation.
	Hits int64
	// Misses counts full front-end runs (parse + admit).
	Misses int64
	// Invalidations counts plans dropped for table version staleness.
	Invalidations int64
	// Evictions counts plans dropped by the byte budget or a governor shed.
	Evictions int64
	// Entries/Bytes/Budget describe residency (aggregate Stats only).
	Entries int
	Bytes   int64
	Budget  int64
}

// HitRate returns the fraction of lookups answered without a full
// front-end run.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// tenantStats aggregates per-tenant counters with atomics so the hit
// path stays lock-free beyond the cache's read lock.
type tenantStats struct {
	hits, misses, invalidations atomic.Int64
}

func (t *tenantStats) snapshot() Stats {
	return Stats{
		Hits:          t.hits.Load(),
		Misses:        t.misses.Load(),
		Invalidations: t.invalidations.Load(),
	}
}

// IdentityFn resolves a table name to its live (ID, Version) identity;
// ok is false for a dropped/unknown table. Callers install one bound
// function value at construction time so the hit path allocates no
// closures.
type IdentityFn func(table string) (id, ver uint64, ok bool)

// Cache is the statement/plan cache. All methods are safe for
// concurrent use.
type Cache struct {
	budget int64
	ident  IdentityFn

	mu     sync.RWMutex
	plans  map[string]*Plan // keyed by the exact SQL spelling
	bytes  int64
	evicts int64

	clock atomic.Int64

	statsMu sync.Mutex
	stats   map[string]*tenantStats
}

// New returns a plan cache charging plans against budgetBytes (<= 0
// selects DefaultBudget). ident supplies live table identities for the
// lookup-time staleness check.
func New(budgetBytes int64, ident IdentityFn) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	return &Cache{
		budget: budgetBytes,
		ident:  ident,
		plans:  make(map[string]*Plan),
		stats:  make(map[string]*tenantStats),
	}
}

// tenant returns the counter block for a tenant, creating it on first
// use (the only allocation a tenant's first query pays).
func (c *Cache) tenant(name string) *tenantStats {
	c.statsMu.Lock()
	ts, ok := c.stats[name]
	if !ok {
		ts = &tenantStats{}
		c.stats[name] = ts
	}
	c.statsMu.Unlock()
	return ts
}

// fresh reports whether pl's table is still at its planned version.
func (c *Cache) fresh(pl *Plan) bool {
	id, ver, ok := c.ident(pl.Table)
	return ok && id == pl.TableID && ver == pl.TableVer
}

// Lookup serves the exact SQL spelling seen before, for a table still
// at the plan's version. Beyond a tenant's first-ever call (which
// allocates its counter block) a hit performs no heap allocation, given
// an allocation-free IdentityFn. A stale plan is dropped (counted as an
// invalidation; Admit will count the ensuing miss); nil means the
// caller must parse.
func (c *Cache) Lookup(tenant, sql string) *Plan {
	if faultinject.Fire(faultinject.PointPlanCache) != nil {
		// An injected lookup failure degrades to a full parse: the cache
		// is an optimisation, never a dependency.
		return nil
	}
	c.mu.RLock()
	pl := c.plans[sql]
	c.mu.RUnlock()
	if pl == nil {
		return nil // Admit counts the miss
	}
	ts := c.tenant(tenant)
	if !c.fresh(pl) {
		c.mu.Lock()
		c.dropLocked(pl)
		c.mu.Unlock()
		ts.invalidations.Add(1)
		return nil
	}
	pl.stamp.Store(c.clock.Add(1))
	ts.hits.Add(1)
	return pl
}

// Contains reports whether sql is cached under its exact spelling for a
// table still at the plan's version. Unlike Lookup it counts nothing
// and leaves the LRU clock alone — the serving layer's pre-admission
// syntax check (DB.CheckSQL) uses it so per-tenant counters and
// eviction order reflect only real executions. A stale entry just
// reports false; the execution path's Lookup handles invalidation.
func (c *Cache) Contains(sql string) bool {
	c.mu.RLock()
	pl := c.plans[sql]
	c.mu.RUnlock()
	return pl != nil && c.fresh(pl)
}

// Admit caches the front-end work for a just-parsed statement under its
// spelling, replacing whatever plan (stale, or a concurrent admission's)
// held that spelling. id/ver are the live identity of the statement's
// target table. The returned plan is never nil.
func (c *Cache) Admit(tenant, sql string, st *sqlparse.Statement, id, ver uint64) *Plan {
	pl := &Plan{
		Table:     st.Query.Table,
		TableID:   id,
		TableVer:  ver,
		Statement: st,
		Prep:      recycler.Prepare(id, ver, st.Query.Where),
		sql:       sql,
		bytes:     int64(len(sql)) + planOverhead,
	}
	pl.stamp.Store(c.clock.Add(1))
	c.tenant(tenant).misses.Add(1)

	c.mu.Lock()
	defer c.mu.Unlock()
	if old := c.plans[sql]; old != nil {
		c.dropLocked(old)
	}
	c.plans[sql] = pl
	c.bytes += pl.bytes
	if c.bytes > c.budget {
		// Evict a batch, not one victim: a cache that sits at its budget
		// (plans staled by loads linger until evicted) would otherwise
		// pay the stamp sort on every miss.
		c.evicts += c.dropOldestLocked(c.budget - c.budget/8)
	}
	return pl
}

// dropLocked removes pl if it is still the resident plan for its
// spelling (a racing lookup may have dropped or replaced it already).
func (c *Cache) dropLocked(pl *Plan) {
	if c.plans[pl.sql] != pl {
		return
	}
	delete(c.plans, pl.sql)
	c.bytes -= pl.bytes
}

// dropOldestLocked drops least-recently-stamped plans until resident
// bytes are at most target, returning how many it dropped. One scan
// snapshots every plan's stamp (stamps mutate concurrently under the
// read lock, so the sort must not reread them) and a single
// stamp-ordered pass drops the batch.
func (c *Cache) dropOldestLocked(target int64) (dropped int64) {
	if c.bytes <= target || len(c.plans) == 0 {
		return 0
	}
	type victim struct {
		pl    *Plan
		stamp int64
	}
	victims := make([]victim, 0, len(c.plans))
	for _, pl := range c.plans {
		victims = append(victims, victim{pl, pl.stamp.Load()})
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].stamp < victims[j].stamp })
	for _, v := range victims {
		if c.bytes <= target {
			break
		}
		c.dropLocked(v.pl)
		dropped++
	}
	return dropped
}

// PlanUsage reports the cache's resident bytes — the usage feed for a
// global memory governor.
func (c *Cache) PlanUsage() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// ShedPlans drops least-recently-used plans until roughly `bytes` bytes
// are freed (or the cache is empty), returning the bytes actually
// freed. This is the governor's coordinated-pressure hook: unlike the
// private budget eviction it fires regardless of the cache's own
// budget, because the authority asking has a view the cache lacks —
// total process pressure. Dropped plans are recomputable (one parse
// each), never data.
func (c *Cache) ShedPlans(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.bytes
	c.evicts += c.dropOldestLocked(before - bytes)
	return before - c.bytes
}

// Stats aggregates all tenants and reports cache residency.
func (c *Cache) Stats() Stats {
	var out Stats
	c.statsMu.Lock()
	for _, ts := range c.stats {
		s := ts.snapshot()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Invalidations += s.Invalidations
	}
	c.statsMu.Unlock()
	c.mu.RLock()
	out.Entries = len(c.plans)
	out.Bytes = c.bytes
	out.Budget = c.budget
	out.Evictions = c.evicts
	c.mu.RUnlock()
	return out
}

// StatsByTenant snapshots every tenant's counters (the default tenant
// under "").
func (c *Cache) StatsByTenant() map[string]Stats {
	c.statsMu.Lock()
	out := make(map[string]Stats, len(c.stats))
	for name, ts := range c.stats {
		out[name] = ts.snapshot()
	}
	c.statsMu.Unlock()
	return out
}
