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

// Value indexes: a view-local zones grid (Gray, Nieto-Santisteban &
// Szalay, The Zones Algorithm for Finding Points-Near-a-Point or
// Cross-Matching Spatial Datasets, MSR-TR-2006-52) that lets a layer
// scan visit only the sampled rows a predicate's necessary boxes
// (expr.BoxesOf) admit. Zone maps cannot do this for a layer: its
// sampled positions land in every base granule, so no granule is ever
// pruned.
//
// A grid indexes the view's samples over one or two DOUBLE columns. The
// first column's value range is cut into equal-width zones and the
// second's into equal-width cells, so a cone's box — its declination
// band by its right-ascension window — visits only the (zone, cell)
// pairs it overlaps, not its whole band. A one-column grid, one cell
// per zone, serves a bound on a single column.
//
// The index never changes the sample. Narrow returns an ascending subset
// of the view's positions that contains every row inside the boxes; the
// rows it leaves out fail a necessary condition of the predicate, so a
// scan over the subset matches exactly the rows a scan over the whole
// view does.

const (
	// bucketRows is the mean cell occupancy: a grid over n samples has
	// ⌈n/bucketRows⌉ cells, split evenly over its axes.
	bucketRows = 32
	// narrowShare: a narrowing that keeps more than 1/narrowShare of the
	// view is not worth its bitmap pass, and the scan visits the view.
	narrowShare = 2
)

// valueIndex holds a view's grids. Every copy of a View (Clamp
// included) shares it; each grid is built once, by the first Narrow
// whose box names its columns.
type valueIndex struct {
	base      *table.Table // the live base table the view samples
	positions vec.Sel      // the unclamped view positions

	mu    sync.Mutex
	grids map[[2]string]*grid // by zone and cell column; nil entry: not indexable
}

// axis is one grid axis: an equal-width bucket map over the finite
// values of a column, buckets 0..last.
type axis struct {
	min, scale float64
	last       int
}

// newAxis cuts the finite values [mn, mx] into n buckets; a column
// without two distinct finite values maps everything to bucket 0.
func newAxis(mn, mx float64, n int) axis {
	a := axis{last: n - 1}
	if mn < mx {
		a.min = mn
		if s := float64(n) / (mx - mn); s < math.Inf(1) {
			a.scale = s
		}
	}
	return a
}

// bucket maps v to its bucket: ⌊(v−min)·scale⌋ clamped to [0, last],
// with −Inf to bucket 0 and +Inf to the last bucket. It is monotone
// non-decreasing in v, and the build and every lookup map through it,
// so a value inside [lo, hi] always lands in a bucket between those of
// lo and hi: bucket spans need no widening.
func (a *axis) bucket(v float64) int {
	x := (v - a.min) * a.scale
	switch {
	case !(x > 0):
		return 0
	case x >= float64(a.last):
		return a.last
	}
	return int(x)
}

// span returns the buckets [b0, b1] that can hold a value of [lo, hi];
// a NaN end bounds nothing on its side. b0 > b1 when the interval is
// empty.
func (a *axis) span(lo, hi float64) (b0, b1 int) {
	b0, b1 = 0, a.last
	if !math.IsNaN(lo) {
		b0 = a.bucket(lo)
	}
	if !math.IsNaN(hi) {
		b1 = a.bucket(hi)
	}
	return b0, b1
}

// grid is a counting-sort index of a view's samples over a zone column
// and, optionally, a cell column. Cell z·cells + c (zone z, cell c)
// holds the sample indices idx[start[z·cells+c]:start[z·cells+c+1]],
// ascending, so a zone's cells are contiguous. A sample with a NaN on
// either column is left out: every box is false on NaN (the contract
// zone maps rely on too).
type grid struct {
	zone, cell axis
	cells      int // cells per zone
	start      []int32
	idx        []int32
}

// buildGrid indexes the samples at positions by zones of zd and cells of
// cd (nil: one cell per zone) in two passes (finite min/max, then a
// counting sort): O(n), no comparison sort. base accounts the reads with
// its pager, as a scan of the same positions would.
func buildGrid(base *table.Table, zd, cd []float64, positions vec.Sel) *grid {
	zmn, zmx := math.Inf(1), math.Inf(-1)
	cmn, cmx := zmn, zmx
	granuleEnd := 0
	for _, p := range positions {
		if int(p) >= granuleEnd {
			lo := int(p) / column.ZoneRows * column.ZoneRows
			granuleEnd = lo + column.ZoneRows
			base.TouchRange(lo, min(granuleEnd, len(zd)))
		}
		if v := zd[p]; math.Abs(v) <= math.MaxFloat64 { // finite: NaN fails too
			zmn, zmx = min(zmn, v), max(zmx, v)
		}
		if cd != nil {
			if v := cd[p]; math.Abs(v) <= math.MaxFloat64 {
				cmn, cmx = min(cmn, v), max(cmx, v)
			}
		}
	}
	zones, cells := max(1, (len(positions)+bucketRows-1)/bucketRows), 1
	if cd != nil {
		n := zones
		zones = int(math.Ceil(math.Sqrt(float64(n))))
		cells = (n + zones - 1) / zones
	}
	g := &grid{zone: newAxis(zmn, zmx, zones), cell: newAxis(cmn, cmx, cells), cells: cells}
	// Counting sort: per-sample cell ids (-1 for NaN), cell counts,
	// offsets, then a stable scatter that keeps indices ascending.
	ids := make([]int32, len(positions))
	g.start = make([]int32, zones*cells+1)
	for i, p := range positions {
		z, c := zd[p], 0.0
		if cd != nil {
			c = cd[p]
		}
		if z != z || c != c {
			ids[i] = -1
			continue
		}
		b := g.zone.bucket(z)*cells + g.cell.bucket(c)
		ids[i] = int32(b)
		g.start[b+1]++
	}
	for b := 1; b < len(g.start); b++ {
		g.start[b] += g.start[b-1]
	}
	g.idx = make([]int32, g.start[len(g.start)-1])
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, b := range ids {
		if b >= 0 {
			g.idx[next[b]] = int32(i)
			next[b]++
		}
	}
	return g
}

// cellRuns appends to dst the runs of cells [c0, c1], ascending and
// merged, that can hold a value passing b's offset test; a box without
// a cell column covers the one cell.
//
// A value v passes |v − Center| <= Near || |v − Center| >= Far only in
// (−∞, Center − Far], [Center − Near, Center + Near] or
// [Center + Far, +∞), ranges that start in that order. The test compares
// the rounded offset, within a relative 2⁻⁵³ of the exact one, and each
// end below rounds twice more: widening every end by
// 2⁻⁴⁸·(|Center| + |Near| + |Far|), eight times their sum, keeps every
// value the test passes inside the ranges, ±Inf included, however fine
// the cells. A test without finite ends covers every cell.
func (g *grid) cellRuns(dst [][2]int, b expr.Box) [][2]int {
	c, near, far := b.Center, b.Near, b.Far
	s := (math.Abs(c) + math.Abs(near) + math.Abs(far)) * 0x1p-48
	if b.Col == "" || !(s <= math.MaxFloat64) {
		return append(dst, [2]int{0, g.cell.last})
	}
	for _, r := range [3][2]float64{{math.Inf(-1), c - far + s}, {c - near - s, c + near + s}, {c + far - s, math.Inf(1)}} {
		c0, c1 := g.cell.span(r[0], r[1])
		switch k := len(dst) - 1; {
		case c0 > c1:
		case k >= 0 && c0 <= dst[k][1]+1:
			dst[k][1] = max(dst[k][1], c1)
		default:
			dst = append(dst, [2]int{c0, c1})
		}
	}
	return dst
}

// count returns the samples in zones [z0, z1] and cell runs.
func (g *grid) count(z0, z1 int, runs [][2]int) int {
	n := 0
	for z := z0; z <= z1; z++ {
		for _, r := range runs {
			n += int(g.start[z*g.cells+r[1]+1] - g.start[z*g.cells+r[0]])
		}
	}
	return n
}

// grid returns the grid of the zone column zcol and the cell column ccol
// ("" for none), building it on first use; nil when a named column is
// not a DOUBLE column of the base table.
func (x *valueIndex) grid(zcol, ccol string) *grid {
	key := [2]string{zcol, ccol}
	x.mu.Lock()
	defer x.mu.Unlock()
	if g, ok := x.grids[key]; ok {
		return g
	}
	var g *grid
	// A snapshot of the live table taken now covers every position of
	// the view (rows are appended before they are offered); the snapshot
	// a query scans may not.
	snap := x.base.Snapshot()
	zd, err := snap.Float64(zcol)
	var cd []float64
	if err == nil && ccol != "" {
		cd, err = snap.Float64(ccol)
	}
	if err == nil && (len(x.positions) == 0 || int(x.positions[len(x.positions)-1]) < len(zd)) {
		g = buildGrid(snap, zd, cd, x.positions)
	}
	if x.grids == nil {
		x.grids = make(map[[2]string]*grid)
	}
	x.grids[key] = g
	return g
}

// bitmapPool recycles Narrow's sample-index bitmaps.
var bitmapPool = sync.Pool{New: func() any { return new([]uint64) }}

// Narrow returns the positions of the view a scan under the given
// necessary boxes (expr.BoxesOf of the scan's predicate) must visit, in
// ascending order, and beside them their sample indices
// (v.Positions[idx[j]] == scan[j]): the samples in the cells of the box
// over indexed DOUBLE columns that admits the fewest. It returns nil,
// nil when no box applies or the candidates are more than half the
// view; the scan then visits every position. Non-nil results are pooled
// scratch (vec.GetSel), to be released with vec.PutSel once the scan is
// done.
func (v View) Narrow(boxes []expr.Box) (scan, idx vec.Sel) {
	n := len(v.Positions)
	if v.index == nil || n == 0 {
		return nil, nil
	}
	var (
		best  *grid
		bestB expr.Box
		buf   [3][2]int
	)
	k := -1
	for _, b := range boxes {
		g := v.index.grid(b.Attr, b.Col)
		if g == nil {
			continue
		}
		z0, z1 := g.zone.span(b.Lo, b.Hi)
		if c := g.count(z0, z1, g.cellRuns(buf[:0], b)); k < 0 || c < k {
			best, bestB, k = g, b, c
		}
	}
	if k < 0 || narrowShare*k > n {
		return nil, nil
	}
	z0, z1 := best.zone.span(bestB.Lo, bestB.Hi)
	runs := best.cellRuns(buf[:0], bestB)
	// Mark the candidates below the clamp in a bitmap over sample
	// indices, then emit them in ascending order, clearing as we go. k
	// counts marks: j, the bits, is fewer only if runs overlap.
	bp := bitmapPool.Get().(*[]uint64)
	words := (n + 63) >> 6
	if cap(*bp) < words {
		*bp = make([]uint64, words)
	}
	bm := (*bp)[:words]
	k = 0
	for z := z0; z <= z1; z++ {
		for _, r := range runs {
			for _, s := range best.idx[best.start[z*best.cells+r[0]]:best.start[z*best.cells+r[1]+1]] {
				if int(s) < n {
					bm[s>>6] |= 1 << (s & 63)
					k++
				}
			}
		}
	}
	scan, idx = vec.GetSel(k)[:k], vec.GetSel(k)[:k]
	j := 0
	for w, word := range bm {
		for word != 0 {
			s := int32(w<<6 | bits.TrailingZeros64(word))
			scan[j], idx[j] = v.Positions[s], s
			j++
			word &= word - 1
		}
		bm[w] = 0
	}
	bitmapPool.Put(bp)
	return scan[:j], idx[:j]
}
