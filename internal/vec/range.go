package vec

import "sync"

// This file holds the range-native selection kernels: predicate
// evaluation over a contiguous row window [lo, hi) that appends into a
// caller-provided scratch buffer instead of gathering through an index
// vector. They are the hot path of the morsel executor — one morsel is
// exactly one [lo, hi) window — and are written write-then-advance
// ("branchless"): the candidate row index is stored unconditionally and
// the output cursor advances by the comparison outcome, so the inner
// loop carries no data-dependent branch for the CPU to mispredict.
//
// Every kernel takes dst as reusable scratch (its contents are
// overwritten; only its capacity matters) and returns the filled
// prefix. Pair with SelPool to make steady-state filtering allocation
// free.

// b2i converts a comparison outcome into an output-cursor increment;
// the compiler lowers it to SETcc, keeping selection loops branchless.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// grow returns dst with length n, reallocating only when the scratch
// capacity is insufficient (the once-per-pool-lifetime slow path).
func grow(dst Sel, n int) Sel {
	if cap(dst) < n {
		return make(Sel, n)
	}
	return dst[:n]
}

// SelPool recycles selection-vector scratch across morsels. It is
// backed by sync.Pool, whose per-P caches give each scan worker its own
// free list without cross-worker contention; after the first few
// morsels every Get is served from a worker-local buffer and the scan
// path allocates nothing.
type SelPool struct {
	p     sync.Pool // *Sel boxes holding a reusable buffer
	boxes sync.Pool // spent *Sel boxes awaiting the next Put
}

// Get returns a zero-length selection with capacity >= capacity.
func (sp *SelPool) Get(capacity int) Sel {
	if v := sp.p.Get(); v != nil {
		b := v.(*Sel)
		s := *b
		*b = nil
		sp.boxes.Put(b) // recycle the box so Put never re-allocates it
		if cap(s) >= capacity {
			return s[:0]
		}
	}
	return make(Sel, 0, capacity)
}

// Put returns a selection's backing buffer to the pool for reuse. s
// must not be used by the caller afterwards.
func (sp *SelPool) Put(s Sel) {
	if cap(s) == 0 {
		return
	}
	var b *Sel
	if v := sp.boxes.Get(); v != nil {
		b = v.(*Sel)
	} else {
		b = new(Sel)
	}
	*b = s[:0]
	sp.p.Put(b)
}

// ScratchPool is the package-level scratch pool the expression layer
// draws from; engine workers release morsel selections back into it.
var ScratchPool SelPool

// GetSel returns pooled scratch with at least the given capacity.
func GetSel(capacity int) Sel { return ScratchPool.Get(capacity) }

// PutSel releases a pooled selection obtained from GetSel (directly or
// through a FilterRange implementation). Safe on nil.
func PutSel(s Sel) { ScratchPool.Put(s) }

// SelectFloat64Range writes the rows i in [lo, hi) with data[i] op c
// into dst and returns the filled prefix. NaN values never match any
// operator except Ne (IEEE comparison semantics).
func SelectFloat64Range(dst Sel, data []float64, lo, hi int, op CmpOp, c float64) Sel {
	if hi < lo {
		hi = lo
	}
	dst = grow(dst, hi-lo)
	d := data[:hi] // hoist the bound check
	k := 0
	switch op {
	case Eq:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] == c)
		}
	case Ne:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] != c)
		}
	case Lt:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] < c)
		}
	case Le:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] <= c)
		}
	case Gt:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] > c)
		}
	case Ge:
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] >= c)
		}
	default:
		return dst[:0]
	}
	return dst[:k]
}

// SelectBetweenFloat64Range writes the rows i in [lo, hi) with
// blo <= data[i] <= bhi (inclusive, SQL BETWEEN) into dst. The two
// bound tests combine with a bitwise AND rather than &&, whose
// short-circuit compiles to a data-dependent branch; NaN fails both
// tests either way.
func SelectBetweenFloat64Range(dst Sel, data []float64, lo, hi int, blo, bhi float64) Sel {
	if hi < lo {
		hi = lo
	}
	dst = grow(dst, hi-lo)
	d := data[:hi]
	k := 0
	for i := lo; i < hi; i++ {
		dst[k] = int32(i)
		v := d[i]
		k += b2i(v >= blo) & b2i(v <= bhi)
	}
	return dst[:k]
}

// SelectEqInt32Range writes the rows i in [lo, hi) whose code equals
// (want) or differs from (!want) code into dst — the dictionary-coded
// string comparison over one morsel.
func SelectEqInt32Range(dst Sel, data []int32, lo, hi int, code int32, want bool) Sel {
	if hi < lo {
		hi = lo
	}
	dst = grow(dst, hi-lo)
	d := data[:hi]
	k := 0
	if want {
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] == code)
		}
	} else {
		for i := lo; i < hi; i++ {
			dst[k] = int32(i)
			k += b2i(d[i] != code)
		}
	}
	return dst[:k]
}

// FillSelRange writes the full window [lo, hi) into dst — the
// "every row matched" result of a range kernel.
func FillSelRange(dst Sel, lo, hi int) Sel {
	if hi < lo {
		hi = lo
	}
	dst = grow(dst, hi-lo)
	for k := range dst {
		dst[k] = int32(lo + k)
	}
	return dst
}

// OrInto unions two sorted selections into dst (neither may be nil).
func OrInto(dst, a, b Sel) Sel {
	dst = grow(dst, len(a)+len(b))
	k := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst[k] = a[i]
			i++
		case a[i] > b[j]:
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			i++
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return dst[:k]
}

// DiffRangeInto writes [lo, hi) \ b into dst, where b is a sorted
// selection within [lo, hi) — the complement of a morsel-local
// selection against its own window (range-native NOT).
func DiffRangeInto(dst Sel, lo, hi int, b Sel) Sel {
	if hi < lo {
		hi = lo
	}
	dst = grow(dst, hi-lo)
	k := 0
	j := 0
	for i := lo; i < hi; i++ {
		for j < len(b) && b[j] < int32(i) {
			j++
		}
		dst[k] = int32(i)
		k += b2i(j >= len(b) || b[j] != int32(i))
	}
	return dst[:k]
}
