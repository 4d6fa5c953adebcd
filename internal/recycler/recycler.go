// Package recycler implements an intermediate-result cache in the style
// of the MonetDB recycler the paper builds on ([13], §3.3): selection
// vectors of recently evaluated predicates are memoised so that repeated
// exploration queries (the dominant SkyServer pattern) skip re-scanning,
// and refined queries (p AND q issued after p — the scientist zooming
// in) are answered by filtering only the cached superset selection.
//
// Identity discipline: entries are keyed by (table ID, table version,
// canonical predicate encoding). The ID is process-unique per logical
// table and the version bumps on every mutation, so a same-length
// truncate/rebuild can never alias an older selection — the hit path
// never has to inspect row data. Keys are compact binary strings built
// by expr.PredKey: no fmt on the query hot path. expr.Canonical
// normalises commuted/nested conjunctions and merges redundant interval
// bounds first, so "a AND b" and "b AND a" share one entry.
//
// Memory discipline: entries charge len(sel)*4 bytes (the backing
// int32s) against a byte budget. Eviction is LRU by bytes, admission
// rejects any single selection larger than a fraction of the budget,
// and entries of superseded table versions are dropped eagerly the
// moment a newer version of the same table is inserted.
//
// Subsumption: a miss for a conjunction first searches the same table
// version for an entry whose conjuncts are a subset of (or are implied
// by, via interval containment) the query's. The residual conjuncts
// then evaluate sel-natively over the cached positions through
// engine.Filter — cost proportional to the cached selection (zone
// maps still prune granules), never to the base table.
package recycler

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/faultinject"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// DefaultBudget is the byte budget Open-style callers use when none is
// configured: 32 MiB of selection vectors.
const DefaultBudget = 32 << 20

// admissionDivisor bounds a single entry to budget/admissionDivisor
// bytes: one huge selection must not wipe the working set.
const admissionDivisor = 4

// subsumptionScanCap bounds how many same-table candidates one miss
// examines under the lock. The search is a reuse heuristic, not a
// correctness requirement: capping it keeps a miss O(cap) even when a
// large budget holds thousands of small entries, at the price of
// possibly overlooking a reusable superset in a very full bucket.
const subsumptionScanCap = 128

// Stats reports cache effectiveness.
type Stats struct {
	// Hits counts exact canonical-key hits (no evaluation at all).
	Hits int64
	// SubsumedHits counts misses answered by refining a cached
	// superset selection (evaluation cost ∝ cached selection).
	SubsumedHits int64
	// Misses counts cold evaluations over the base table.
	Misses int64
	// Evictions counts entries dropped for budget or version staleness.
	Evictions int64
	// AdmissionRejects counts selections denied entry for being larger
	// than the per-entry admission bound.
	AdmissionRejects int64
	// Entries is the resident entry count; Bytes their charged sum.
	Entries int
	Bytes   int64
	// Budget echoes the configured byte budget.
	Budget int64
}

// HitRate returns the fraction of lookups served from cached state
// (exact or subsumed), 0 when empty.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.SubsumedHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.SubsumedHits) / float64(total)
}

// conjunct is one canonical conjunct with its binary key.
type conjunct struct {
	key  string
	pred expr.Predicate
}

// entry is one cached selection.
type entry struct {
	key     string // full (id, version, predicate) key
	id, ver uint64
	sel     vec.Sel
	conj    []conjunct // canonical conjuncts, ascending by key
	bytes   int64
	elem    *list.Element
}

// Recycler memoises predicate selections with byte-budgeted LRU
// eviction and subsumption-aware reuse.
type Recycler struct {
	mu      sync.Mutex
	budget  int64
	entries map[string]*entry
	order   *list.List // front = most recent; Value = *entry
	byID    map[uint64]map[*entry]struct{}
	stats   Stats
}

// New returns a recycler charging selections against a byte budget.
func New(budgetBytes int64) (*Recycler, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("recycler: budget must be positive, got %d", budgetBytes)
	}
	return &Recycler{
		budget:  budgetBytes,
		entries: make(map[string]*entry),
		order:   list.New(),
		byID:    make(map[uint64]map[*entry]struct{}),
	}, nil
}

// Admissible reports whether a selection of the given row count could
// pass admission. Callers with a cheap upper bound on the match count
// (e.g. engine.EstimateScanRows) use it to skip the recycler — and the
// full-selection materialisation feeding it — for queries whose result
// could never be cached anyway.
func (r *Recycler) Admissible(rows int) bool {
	return int64(rows)*4 <= r.budget/admissionDivisor
}

// keyPrefix encodes the (id, version) identity prefix of a cache key.
func keyPrefix(buf []byte, id, ver uint64) []byte {
	buf = binary.BigEndian.AppendUint64(buf, id)
	return binary.BigEndian.AppendUint64(buf, ver)
}

// prepared is the canonicalisation work of one Filter call: the
// canonical predicate, its keyed conjunct list, and the full binary
// cache key for one (table ID, table version) identity.
type prepared struct {
	canon expr.Predicate // nil when TRUE-equivalent: nothing to cache or evaluate
	key   string         // full (id, version, predicate) key; "" when unkeyable
	conj  []conjunct
}

// prepare canonicalises pred and encodes its cache key for the table
// identity (id, ver) — the values a snapshot of the target table
// reports.
func prepare(id, ver uint64, pred expr.Predicate) prepared {
	if isTrue(pred) {
		return prepared{}
	}
	p := prepared{canon: expr.Canonical(pred)}
	if isTrue(p.canon) {
		return prepared{}
	}
	if keyBuf, ok := expr.PredKey(keyPrefix(make([]byte, 0, 64), id, ver), p.canon); ok {
		p.key = string(keyBuf)
		p.conj = conjuncts(p.canon)
	}
	return p
}

// Filter evaluates pred over all rows of snap, serving repeated
// predicates from the cache and refined predicates from cached
// supersets. The returned selection is shared with the cache: callers
// must treat it as read-only. The ScanStats report what evaluation
// actually ran — zero for an exact hit. A TRUE-equivalent predicate
// returns (nil, …): "all rows" is free to recompute and is never
// cached. snap must be a snapshot: its (ID, Version) identity keys the
// cached selection, so a selection can never be served against a
// longer row prefix than it describes.
func (r *Recycler) Filter(snap *table.Table, pred expr.Predicate, opts engine.ExecOptions) (vec.Sel, engine.ScanStats, error) {
	prep := prepare(snap.ID(), snap.Version(), pred)
	if prep.canon == nil {
		return nil, engine.ScanStats{}, nil
	}
	if prep.key == "" || faultinject.Fire(faultinject.PointRecycler) != nil {
		// User-defined predicate shapes cannot be keyed safely — and an
		// injected cache failure must degrade the same way: evaluate
		// uncached (the cache is an optimisation, never a dependency).
		sel, scan, err := engine.Filter(snap, pred, nil, opts)
		if err != nil {
			return nil, scan, err
		}
		return concrete(sel, snap.Len()), scan, nil
	}

	r.mu.Lock()
	if e, ok := r.entries[prep.key]; ok {
		r.order.MoveToFront(e.elem)
		r.stats.Hits++
		sel := e.sel
		r.mu.Unlock()
		return sel, engine.ScanStats{}, nil
	}
	conj := prep.conj
	super, residual := r.findSupersetLocked(snap.ID(), snap.Version(), conj)
	if super != nil {
		r.stats.SubsumedHits++
	} else {
		r.stats.Misses++
	}
	r.mu.Unlock()

	var (
		sel  vec.Sel
		scan engine.ScanStats
		err  error
	)
	if super != nil {
		// Refinement: the cached selection is a superset of the answer;
		// only the residual conjuncts run, sel-natively, over it.
		sel, scan, err = engine.Filter(snap, expr.JoinAnd(residual), super, opts)
	} else {
		sel, scan, err = engine.Filter(snap, prep.canon, nil, opts)
		sel = concrete(sel, snap.Len())
	}
	if err != nil {
		return nil, scan, err
	}
	r.insert(prep.key, snap.ID(), snap.Version(), conj, sel)
	return sel, scan, nil
}

// Exec evaluates q exactly over a snapshot of t — the one exact
// execution path, shared by unbounded queries and the bounded
// executor's base rung — serving the WHERE selection through rec (nil
// = no cache): a repeated predicate skips its scan entirely, and a
// refined one (p AND q after p) filters only the cached superset
// selection. The query then executes over the snapshot the selection
// describes via the prefiltered engine path, whose morsel merge layout
// makes results bit-identical to an uncached scan. WHERE-less queries
// and TRUE-equivalent predicates take the plain path.
func Exec(rec *Recycler, t *table.Table, q engine.Query, opts engine.ExecOptions) (*engine.Result, error) {
	snap := t.Snapshot()
	if rec == nil || q.Where == nil {
		return engine.RunOnOpts(snap, q, opts)
	}
	if len(q.Aggs) > 0 {
		// The fused aggregate path never materialises a selection, so
		// routing through the recycler only pays off if the result can
		// actually be cached. The post-pruning scanned-row count bounds
		// the match count from above; when even that bound is
		// inadmissible, stay on the fused path instead of building (and
		// then rejecting) a huge selection every query. Projections
		// materialise the selection either way, so they always route.
		if upper := engine.EstimateScanRows(snap, q.Pred(), nil, opts); !rec.Admissible(upper) {
			return engine.RunOnOpts(snap, q, opts)
		}
	}
	sel, scan, err := rec.Filter(snap, q.Where, opts)
	if err != nil {
		return nil, err
	}
	if sel == nil {
		// TRUE-equivalent predicate: nothing to reuse, scan normally.
		return engine.RunOnOpts(snap, q, opts)
	}
	return engine.RunOnFilteredOpts(snap, sel, q, scan, opts)
}

// findSupersetLocked searches the (id, ver) bucket for the cheapest
// entry whose predicate is implied by the query conjunction — every
// cached conjunct either appears verbatim in the query (by key) or is
// implied by one of its conjuncts (interval containment). It returns
// that entry's selection and the query conjuncts that still need
// evaluating (those without a verbatim match). Caller holds r.mu; the
// returned selection stays valid after unlock because evicted entries
// are only unlinked, never mutated.
func (r *Recycler) findSupersetLocked(id, ver uint64, conj []conjunct) (vec.Sel, []expr.Predicate) {
	var best *entry
	examined := 0
	for e := range r.byID[id] {
		if examined++; examined > subsumptionScanCap {
			break
		}
		if e.ver != ver {
			continue
		}
		if best != nil && len(e.sel) >= len(best.sel) {
			continue
		}
		if covers(conj, e.conj) {
			best = e
		}
	}
	if best == nil {
		return nil, nil
	}
	residual := residualOf(conj, best.conj)
	if len(residual) == 0 {
		// Identical conjunct sets would have hit the exact key; implied-
		// only entries always leave a residual. Defensive: treat an
		// empty residual as no candidate rather than returning a
		// superset as the answer.
		return nil, nil
	}
	r.order.MoveToFront(best.elem)
	return best.sel, residual
}

// covers reports whether every cached conjunct is satisfied whenever
// the whole query conjunction is: a verbatim key match, or implication
// from some query conjunct. Both slices are ascending by key.
func covers(query []conjunct, cached []conjunct) bool {
	i := 0
	for _, c := range cached {
		for i < len(query) && query[i].key < c.key {
			i++
		}
		if i < len(query) && query[i].key == c.key {
			continue
		}
		implied := false
		for _, q := range query {
			if expr.Implies(q.pred, c.pred) {
				implied = true
				break
			}
		}
		if !implied {
			return false
		}
	}
	return true
}

// residualOf returns the query conjuncts without a verbatim match in
// the cached entry — the predicates that must still run over the
// cached selection. Both inputs are ascending by key.
func residualOf(query []conjunct, cached []conjunct) []expr.Predicate {
	var out []expr.Predicate
	j := 0
	for _, q := range query {
		for j < len(cached) && cached[j].key < q.key {
			j++
		}
		if j < len(cached) && cached[j].key == q.key {
			continue
		}
		out = append(out, q.pred)
	}
	return out
}

// insert admits a freshly computed selection, evicting stale versions
// of the same table and then LRU entries until the budget holds.
func (r *Recycler) insert(key string, id, ver uint64, conj []conjunct, sel vec.Sel) {
	bytes := int64(len(sel)) * 4
	r.mu.Lock()
	defer r.mu.Unlock()
	if bytes > r.budget/admissionDivisor {
		r.stats.AdmissionRejects++
		return
	}
	if e, ok := r.entries[key]; ok {
		// Raced with another evaluation of the same predicate; keep the
		// incumbent.
		r.order.MoveToFront(e.elem)
		return
	}
	bucket := r.byID[id]
	for o := range bucket {
		if o.ver > ver {
			// A straggler: the query snapshotted before a concurrent
			// load, and the cache already holds entries for a newer
			// version no future snapshot of this table will miss past.
			// Don't spend budget on a selection that can never be hit
			// again — and never evict the fresh entries.
			return
		}
	}
	e := &entry{key: key, id: id, ver: ver, sel: sel, conj: conj, bytes: bytes}
	e.elem = r.order.PushFront(e)
	r.entries[key] = e
	if bucket == nil {
		bucket = make(map[*entry]struct{})
		r.byID[id] = bucket
	}
	bucket[e] = struct{}{}
	r.stats.Bytes += bytes

	// A newer version of this table supersedes every older one — the
	// base is append-only, so strictly-older entries can only be hit by
	// straggler snapshots and are better spent on the budget.
	for o := range bucket {
		if o.ver < ver {
			r.evictLocked(o)
		}
	}
	for r.stats.Bytes > r.budget {
		oldest := r.order.Back()
		if oldest == nil {
			break
		}
		r.evictLocked(oldest.Value.(*entry))
	}
}

func (r *Recycler) evictLocked(e *entry) {
	r.order.Remove(e.elem)
	delete(r.entries, e.key)
	if bucket := r.byID[e.id]; bucket != nil {
		delete(bucket, e)
		if len(bucket) == 0 {
			delete(r.byID, e.id)
		}
	}
	r.stats.Bytes -= e.bytes
	r.stats.Evictions++
}

// UsageBytes reports the resident selection bytes — the usage feed for
// a global memory governor.
func (r *Recycler) UsageBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats.Bytes
}

// Shed evicts least-recently-used entries until roughly `bytes` bytes
// are freed (or the cache is empty), returning the bytes actually
// freed. The governor's coordinated-pressure hook: it fires regardless
// of this cache's own budget. Selections are recomputable (one scan
// each) — the most expensive cached state to rebuild, which is why the
// governor sheds this tier last.
func (r *Recycler) Shed(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	before := r.stats.Bytes
	for before-r.stats.Bytes < bytes {
		oldest := r.order.Back()
		if oldest == nil {
			break
		}
		r.evictLocked(oldest.Value.(*entry))
	}
	return before - r.stats.Bytes
}

// Stats returns a snapshot of cache statistics.
func (r *Recycler) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Entries = r.order.Len()
	s.Budget = r.budget
	return s
}

// Reset clears the cache and statistics.
func (r *Recycler) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = make(map[string]*entry)
	r.order = list.New()
	r.byID = make(map[uint64]map[*entry]struct{})
	r.stats = Stats{}
}

// conjuncts splits a canonical predicate into its keyed conjunct list
// (ascending by key — Canonical already sorts And chains).
func conjuncts(canon expr.Predicate) []conjunct {
	preds := expr.SplitAnd(canon)
	out := make([]conjunct, 0, len(preds))
	for _, p := range preds {
		key, ok := expr.PredKey(nil, p)
		if !ok {
			// Cannot happen: the whole predicate was keyable.
			continue
		}
		out = append(out, conjunct{key: string(key), pred: p})
	}
	return out
}

// concrete materialises the engine's nil-means-all-rows convention into
// an explicit selection so it can be cached and served uniformly.
func concrete(sel vec.Sel, n int) vec.Sel {
	if sel == nil {
		return vec.NewSelAll(n)
	}
	return sel
}

func isTrue(p expr.Predicate) bool {
	if p == nil {
		return true
	}
	_, ok := p.(expr.TruePred)
	return ok
}
