package impression

import (
	"math"
	"math/bits"
	"sync"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Value indexes: a view-local "zones" structure (Gray, Nieto-Santisteban
// & Szalay, The Zones Algorithm for Finding Points-Near-a-Point or
// Cross-Matching Spatial Datasets, MSR-TR-2006-52) that lets a layer
// scan visit only the sampled rows a predicate's necessary bounds
// admit. Zone maps cannot do this for a layer: its sampled positions
// land in every base granule, so no granule is ever pruned.
//
// The index never changes the sample. Narrow returns an ascending subset
// of the view's positions that contains every row able to satisfy the
// bounds; the rows it leaves out fail a necessary bound, so a scan over
// the subset matches exactly the rows a scan over the whole view does.

const (
	// bucketRows is the mean bucket occupancy: a column index over n
	// samples has ⌈n/bucketRows⌉ equal-width buckets.
	bucketRows = 32
	// narrowShare: a narrowing that keeps more than 1/narrowShare of the
	// view is not worth its bitmap pass, and the scan visits the view.
	narrowShare = 2
)

// valueIndex holds a view's per-column bucket indexes. Every copy of a
// View (Clamp included) shares it; each column's index is built once,
// by the first Narrow that bounds it.
type valueIndex struct {
	base      *table.Table // the live base table the view samples
	positions vec.Sel      // the unclamped view positions

	mu   sync.Mutex
	cols map[string]*bucketIndex // nil entry: the column is not indexable
}

// bucketIndex is a counting-sort index of one DOUBLE column over a
// view's samples. Bucket b holds the sample indices idx[start[b]:
// start[b+1]], ascending. NaN values are left out: every predicate that
// reports bounds is false on NaN (the contract zone maps rely on too).
type bucketIndex struct {
	min, scale float64
	last       int // the last bucket
	start      []int32
	idx        []int32
}

// bucket maps v to its bucket: ⌊(v−min)·scale⌋ clamped to [0, last],
// with −Inf to bucket 0 and +Inf to the last bucket. It is monotone
// non-decreasing in v, and the build and every lookup map through it,
// so a value inside [lo, hi] always lands in a bucket between those of
// lo and hi: bucket spans need no widening.
func (ix *bucketIndex) bucket(v float64) int {
	x := (v - ix.min) * ix.scale
	switch {
	case !(x > 0):
		return 0
	case x >= float64(ix.last):
		return ix.last
	}
	return int(x)
}

// span returns the buckets [b0, b1] that can hold a value of [lo, hi];
// a NaN end bounds nothing on its side. b0 > b1 when the interval is
// empty.
func (ix *bucketIndex) span(lo, hi float64) (b0, b1 int) {
	b0, b1 = 0, ix.last
	if !math.IsNaN(lo) {
		b0 = ix.bucket(lo)
	}
	if !math.IsNaN(hi) {
		b1 = ix.bucket(hi)
	}
	return b0, b1
}

// candidates returns the sample indices in buckets [b0, b1].
func (ix *bucketIndex) candidates(b0, b1 int) []int32 {
	if b0 > b1 {
		return nil
	}
	return ix.idx[ix.start[b0]:ix.start[b1+1]]
}

// buildBucketIndex indexes data at positions in two passes over the
// samples (finite min/max, then a counting sort): O(n), no comparison
// sort. base accounts the reads with its pager, as a scan of the same
// positions would.
func buildBucketIndex(base *table.Table, data []float64, positions vec.Sel) *bucketIndex {
	mn, mx := math.Inf(1), math.Inf(-1)
	granuleEnd := 0
	for _, p := range positions {
		if int(p) >= granuleEnd {
			lo := int(p) / column.ZoneRows * column.ZoneRows
			granuleEnd = lo + column.ZoneRows
			base.TouchRange(lo, min(granuleEnd, len(data)))
		}
		if v := data[p]; math.Abs(v) <= math.MaxFloat64 { // finite: NaN fails too
			mn, mx = min(mn, v), max(mx, v)
		}
	}
	ix := &bucketIndex{last: max(0, (len(positions)+bucketRows-1)/bucketRows-1)}
	if mn < mx {
		ix.min = mn
		if s := float64(ix.last+1) / (mx - mn); s < math.Inf(1) {
			ix.scale = s
		}
	}
	// Counting sort: per-sample bucket ids (-1 for NaN), bucket counts,
	// offsets, then a stable scatter that keeps indices ascending.
	ids := make([]int32, len(positions))
	ix.start = make([]int32, ix.last+2)
	for i, p := range positions {
		v := data[p]
		if v != v {
			ids[i] = -1
			continue
		}
		b := ix.bucket(v)
		ids[i] = int32(b)
		ix.start[b+1]++
	}
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] += ix.start[b-1]
	}
	ix.idx = make([]int32, ix.start[ix.last+1])
	next := append([]int32(nil), ix.start[:ix.last+1]...)
	for i, b := range ids {
		if b >= 0 {
			ix.idx[next[b]] = int32(i)
			next[b]++
		}
	}
	return ix
}

// column returns attr's index, building it on first use; nil when attr
// is not a DOUBLE column of the base table.
func (x *valueIndex) column(attr string) *bucketIndex {
	x.mu.Lock()
	defer x.mu.Unlock()
	if ix, ok := x.cols[attr]; ok {
		return ix
	}
	var ix *bucketIndex
	// A snapshot of the live table taken now covers every position of
	// the view (rows are appended before they are offered); the snapshot
	// a query scans may not.
	snap := x.base.Snapshot()
	data, err := snap.Float64(attr)
	if err == nil && (len(x.positions) == 0 || int(x.positions[len(x.positions)-1]) < len(data)) {
		ix = buildBucketIndex(snap, data, x.positions)
	}
	if x.cols == nil {
		x.cols = make(map[string]*bucketIndex)
	}
	x.cols[attr] = ix
	return ix
}

// bitmapPool recycles Narrow's sample-index bitmaps.
var bitmapPool = sync.Pool{New: func() any { return new([]uint64) }}

// Narrow returns the ascending positions of the view a scan under the
// given necessary bounds (expr.BoundsOf of the scan's predicate) must
// visit: the candidates of the bound on an indexed DOUBLE column that
// admits the fewest samples. It returns nil when no bound applies or the
// candidates are more than half the view; the scan then visits every
// position. A non-nil result is pooled scratch (vec.GetSel), to be
// released with vec.PutSel once the scan is done.
func (v View) Narrow(bounds []expr.Bound) vec.Sel {
	n := len(v.Positions)
	if v.index == nil || n == 0 {
		return nil
	}
	var best []int32
	bestOK := false
	for _, b := range bounds {
		ix := v.index.column(b.Attr)
		if ix == nil {
			continue
		}
		if c := ix.candidates(ix.span(b.Lo, b.Hi)); !bestOK || len(c) < len(best) {
			best, bestOK = c, true
		}
	}
	if !bestOK || narrowShare*len(best) > n {
		return nil
	}
	// Mark the candidates below the clamp in a bitmap over sample
	// indices, then emit them in ascending order, clearing as we go.
	bp := bitmapPool.Get().(*[]uint64)
	words := (n + 63) >> 6
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	bm := (*bp)[:words]
	k := 0
	for _, s := range best {
		if int(s) < n {
			bm[s>>6] |= 1 << (s & 63)
			k++
		}
	}
	out := vec.GetSel(k)[:k]
	j := 0
	for w, word := range bm {
		for word != 0 {
			out[j] = v.Positions[w<<6|bits.TrailingZeros64(word)]
			j++
			word &= word - 1
		}
		bm[w] = 0
	}
	bitmapPool.Put(bp)
	return out
}
