// Package hashtab provides the cache-conscious hash infrastructure
// underneath hash grouping (engine GROUP BY and the grouped
// estimators): a flat open-addressing table mapping int64 keys to dense
// slot ids, and a pool that recycles per-morsel tables across scans.
//
// The design replaces Go's map[K]V on the hot paths. A Go map pays a
// pointer-chasing bucket walk, per-key tophash bookkeeping, and — for
// the engine's previous map[string][]stats.Moments grouping — a string
// key materialisation plus a slice header per key. The flat table here
// is two arrays: a power-of-two index of dense slot ids probed linearly
// (one cache line covers 16 probes) and a densely appended key array in
// first-seen order. Dense ids are the point: group-by partials index a
// flat []stats.Moments by slot.
package hashtab

import "sync"

// minBuckets is the smallest index size; small enough that a pooled
// table reset stays cheap, large enough to avoid immediate growth.
const minBuckets = 16

// maxLoadNum/maxLoadDen cap the bucket load factor at 1/2. Linear
// probing is miss-sensitive — a failed lookup walks to the first empty
// bucket — and at load 0.5 the expected miss chain is ~1.5 entries (vs
// ~5 at 0.75). Buckets are 16 bytes, so even at half load the table spends
// ~32 bytes per key, still well under a Go map's per-entry footprint.
const (
	maxLoadNum = 1
	maxLoadDen = 2
)

// entry is one bucket: the key inlined next to its dense slot id, so a
// probe step is a single 16-byte read — no indirection into the dense
// key array on the compare path, and linear probing walks adjacent
// entries within the same or next cache line.
type entry struct {
	key  int64
	slot int32 // dense id; -1 = empty bucket
}

// Int64Table maps int64 keys to dense slot ids 0..Len()-1 in first-seen
// order, via open addressing with linear probing. The zero value is not
// ready for use; call NewInt64Table.
type Int64Table struct {
	buckets []entry // power-of-two bucket array
	keys    []int64 // dense key array: keys[slot], insertion order
	mask    uint64  // len(buckets) - 1
	max     int     // grow when Len() reaches this
}

// NewInt64Table returns a table pre-sized for hint distinct keys
// (hint <= 0 means "unknown, start small").
func NewInt64Table(hint int) *Int64Table {
	t := &Int64Table{}
	t.rebucket(bucketsFor(hint))
	return t
}

// bucketsFor returns the power-of-two bucket count whose load cap
// covers hint keys.
func bucketsFor(hint int) int {
	nb := minBuckets
	for nb*maxLoadNum/maxLoadDen < hint {
		nb <<= 1
	}
	return nb
}

// rebucket installs a fresh bucket array of nb slots (nb a power of
// two) and reinserts the dense keys; slot ids are stable across growth.
func (t *Int64Table) rebucket(nb int) {
	if cap(t.buckets) >= nb {
		t.buckets = t.buckets[:nb]
	} else {
		t.buckets = make([]entry, nb)
	}
	for i := range t.buckets {
		t.buckets[i] = entry{slot: -1}
	}
	t.mask = uint64(nb - 1)
	t.max = nb * maxLoadNum / maxLoadDen
	for slot, k := range t.keys {
		h := hash64(uint64(k)) & t.mask
		for t.buckets[h].slot >= 0 {
			h = (h + 1) & t.mask
		}
		t.buckets[h] = entry{key: k, slot: int32(slot)}
	}
}

// hash64 is the splitmix64 finalizer: full-avalanche int64 mixing in
// three multiplies/shifts, so sequential key values spread across the
// whole bucket array.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the number of distinct keys.
func (t *Int64Table) Len() int { return len(t.keys) }

// Key returns the key stored at a dense slot.
func (t *Int64Table) Key(slot uint32) int64 { return t.keys[slot] }

// Keys returns the dense key array in first-seen order. Shared storage:
// callers must not modify it, and it is invalidated by Reset.
func (t *Int64Table) Keys() []int64 { return t.keys }

// GetOrInsert returns the dense slot for key, inserting it at slot
// Len() if absent; fresh reports whether this call inserted it.
func (t *Int64Table) GetOrInsert(key int64) (slot uint32, fresh bool) {
	if len(t.keys) >= t.max {
		t.rebucket(len(t.buckets) << 1)
	}
	h := hash64(uint64(key)) & t.mask
	for {
		e := t.buckets[h]
		if e.slot < 0 {
			id := int32(len(t.keys))
			t.buckets[h] = entry{key: key, slot: id}
			t.keys = append(t.keys, key)
			return uint32(id), true
		}
		if e.key == key {
			return uint32(e.slot), false
		}
		h = (h + 1) & t.mask
	}
}

// Get returns the dense slot for key, or ok=false if absent.
func (t *Int64Table) Get(key int64) (slot uint32, ok bool) {
	h := hash64(uint64(key)) & t.mask
	for {
		e := t.buckets[h]
		if e.slot < 0 {
			return 0, false
		}
		if e.key == key {
			return uint32(e.slot), true
		}
		h = (h + 1) & t.mask
	}
}

// Reset empties the table, keeping both arrays' capacity for reuse.
func (t *Int64Table) Reset() {
	for i := range t.buckets {
		t.buckets[i] = entry{slot: -1}
	}
	t.keys = t.keys[:0]
	t.max = len(t.buckets) * maxLoadNum / maxLoadDen
}

// tablePool recycles per-morsel group tables across scans. sync.Pool's
// per-P caches give each scan worker its own free list, so after the
// first few morsels the group-by path allocates no tables at all.
var tablePool = sync.Pool{New: func() any { return NewInt64Table(0) }}

// GetTable returns a pooled empty table (tables are Reset on Put, so
// Get is allocation- and clear-free in steady state).
func GetTable() *Int64Table { return tablePool.Get().(*Int64Table) }

// PutTable resets t and returns it to the pool. t must not be used by
// the caller afterwards (its Keys() storage is recycled too).
func PutTable(t *Int64Table) {
	t.Reset()
	tablePool.Put(t)
}
