package main

import "math"

// The reference evaluator: row-at-a-time answers computed from the rows
// the harness generated, never from the program under test. A one-degree
// grid over (ra, dec) only narrows which rows are visited; every visited
// row is tested individually.

type skyGrid struct {
	start []int32 // start[c]..start[c+1] indexes ids for cell c
	ids   []int32 // row ids in cell order, ascending within a cell
	// Unit vectors in cell order, so a cone test is one dot product.
	x, y, z []float64
}

const (
	gridW = int(raMax - raMin)
	gridH = int(decMax - decMin)
)

func cellCol(ra float64) int  { return min(max(int(math.Floor(ra-raMin)), 0), gridW-1) }
func cellRow(dec float64) int { return min(max(int(math.Floor(dec-decMin)), 0), gridH-1) }

// index builds the grid over every generated row.
func (s *sky) index() {
	n := s.len()
	g := &skyGrid{start: make([]int32, gridW*gridH+1), ids: make([]int32, n),
		x: make([]float64, n), y: make([]float64, n), z: make([]float64, n)}
	cell := func(k int) int { return cellRow(s.dec[k])*gridW + cellCol(s.ra[k]) }
	for k := 0; k < n; k++ {
		g.start[cell(k)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for k := 0; k < n; k++ {
		p := next[cell(k)]
		next[cell(k)]++
		g.ids[p] = int32(k)
		g.x[p], g.y[p], g.z[p] = unitVec(s.ra[k], s.dec[k])
	}
	s.grid = g
}

func unitVec(ra, dec float64) (x, y, z float64) {
	const d2r = math.Pi / 180
	cd := math.Cos(dec * d2r)
	return cd * math.Cos(ra*d2r), cd * math.Sin(ra*d2r), math.Sin(dec * d2r)
}

// agg is the truth of COUNT(*), SUM(r) (and so AVG(r)) over some rows.
type agg struct {
	n   int64
	sum float64
}

func (a agg) avg() float64 { return a.sum / float64(a.n) }

// tally adds row k to every aggregate whose row limit lies beyond k.
// limits ascend, so the aggregates that see k are a suffix.
func tally(out []agg, limits []int, k int, r float64) {
	for j := len(limits) - 1; j >= 0 && k < limits[j]; j-- {
		out[j].n++
		out[j].sum += r
	}
}

// cone evaluates fGetNearbyObjEq(ra0, dec0, radius) over rows
// [0, limit) for each of the ascending limits, in one pass.
func (s *sky) cone(ra0, dec0, radius float64, limits []int) []agg {
	g := s.grid
	out := make([]agg, len(limits))
	last := limits[len(limits)-1]
	cx, cy, cz := unitVec(ra0, dec0)
	cosR := math.Cos(radius * math.Pi / 180)
	// The cone's bounding box: radius in dec, radius/cos(dec) in ra.
	widen := radius / math.Cos((math.Abs(dec0)+radius)*math.Pi/180)
	for row := cellRow(dec0 - radius); row <= cellRow(dec0+radius); row++ {
		for col := cellCol(ra0 - widen); col <= cellCol(ra0+widen); col++ {
			c := row*gridW + col
			for p := g.start[c]; p < g.start[c+1]; p++ {
				k := int(g.ids[p])
				if k >= last {
					break
				}
				if g.x[p]*cx+g.y[p]*cy+g.z[p]*cz >= cosR {
					tally(out, limits, k, s.r[k])
				}
			}
		}
	}
	return out
}

// visit calls fn for every row in [0, limit) that matches b. A box
// without a sky condition is scanned in row order; one with, through
// the grid cells it overlaps.
func (s *sky) visit(b box, limit int, fn func(k int)) {
	if b.raHi == 0 && b.decHi == 0 {
		lo := 0
		if b.idHi != 0 {
			lo, limit = int(max(b.idLo, 0)), int(min(int64(limit), b.idHi+1))
		}
		for k := lo; k < limit; k++ {
			if b.match(s, k) {
				fn(k)
			}
		}
		return
	}
	g := s.grid
	raLo, raHi, decLo, decHi := raMin, raMax, decMin, decMax
	if b.raHi != 0 {
		raLo, raHi = b.raLo, b.raHi
	}
	if b.decHi != 0 {
		decLo, decHi = b.decLo, b.decHi
	}
	for row := cellRow(decLo); row <= cellRow(decHi); row++ {
		for col := cellCol(raLo); col <= cellCol(raHi); col++ {
			c := row*gridW + col
			for p := g.start[c]; p < g.start[c+1]; p++ {
				k := int(g.ids[p])
				if k >= limit {
					break
				}
				if b.match(s, k) {
					fn(k)
				}
			}
		}
	}
}

// boxAggs is the truth of COUNT(*), SUM(r) WHERE b over rows [0, limit)
// for each of the ascending limits, in one pass. Rows are not visited in
// the engine's order, so sum differs from its float sum in the last
// bits; callers compare with closeTo.
func (s *sky) boxAggs(b box, limits []int) []agg {
	out := make([]agg, len(limits))
	s.visit(b, limits[len(limits)-1], func(k int) { tally(out, limits, k, s.r[k]) })
	return out
}

// closeTo compares float aggregates whose summation order differs.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
