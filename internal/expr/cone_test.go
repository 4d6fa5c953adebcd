package expr

import (
	"math"
	"math/rand"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// coneTable builds a two-column (ra, dec) table from parallel slices.
func coneTable(tb testing.TB, ra, dec []float64) *table.Table {
	tb.Helper()
	t := table.MustNew("sky", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
	})
	if err := t.AppendColumns([]column.Column{
		&column.Float64Col{Data: ra},
		&column.Float64Col{Data: dec},
	}); err != nil {
		tb.Fatal(err)
	}
	return t
}

// nudges appends x and its neighbours up to k ulps away on either side.
func nudges(dst []float64, x float64, k int) []float64 {
	dst = append(dst, x)
	up, down := x, x
	for i := 0; i < k; i++ {
		up = math.Nextafter(up, math.Inf(1))
		down = math.Nextafter(down, math.Inf(-1))
		dst = append(dst, up, down)
	}
	return dst
}

// boundaryRA bisects for the RA offset x in [0, 180] at which the
// separation of (Ra0+x, dec) from the centre crosses Radius; ok is
// false when the parallel dec never reaches the boundary.
func boundaryRA(c Cone, dec float64) (float64, bool) {
	sep := func(x float64) float64 { return AngularSeparation(c.Ra0, c.Dec0, c.Ra0+x, dec) }
	lo, hi := 0.0, 180.0
	if !(sep(lo) <= c.Radius) || sep(hi) <= c.Radius {
		return 0, false
	}
	for i := 0; i < 200 && lo < hi; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break
		}
		if sep(mid) <= c.Radius {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, true
}

// coneRows returns rows that stress c: uniform sky positions, rows a
// few ulps either side of the cone's declination extremes and of its
// RA boundary (on the centre's parallel and at the widest RA extent),
// rows across the 0/360 wrap, and non-finite or off-sphere coordinates.
func coneRows(rng *rand.Rand, c Cone, n int) (ra, dec []float64) {
	add := func(r, d float64) { ra, dec = append(ra, r), append(dec, d) }
	for i := 0; i < n; i++ {
		add(rng.Float64()*360, math.Asin(2*rng.Float64()-1)/d2r)
	}
	// Near the cone: uniform in a box a little wider than it.
	for i := 0; i < n; i++ {
		w := math.Abs(c.Radius) + 1
		add(c.Ra0+(2*rng.Float64()-1)*w*3, c.Dec0+(2*rng.Float64()-1)*w)
	}
	for _, d := range nudges(nil, c.Dec0+c.Radius, 4) {
		add(c.Ra0, d)
	}
	for _, d := range nudges(nil, c.Dec0-c.Radius, 4) {
		add(c.Ra0, d)
	}
	// The widest RA extent of a cap is on the parallel
	// asin(sin Dec0 / cos R); probe it and the centre's parallel.
	tangent := math.Asin(math.Sin(c.Dec0*d2r)/math.Cos(c.Radius*d2r)) / d2r
	for _, d := range []float64{c.Dec0, tangent} {
		if x, ok := boundaryRA(c, d); ok {
			for _, off := range nudges(nil, x, 4) {
				add(c.Ra0+off, d)
				add(c.Ra0-off, d)
				add(c.Ra0+off-360, d) // the same sky position across the wrap
			}
		}
	}
	for _, r := range []float64{0, 0.1, 359.9, 360, 720.1, -0.1, -359.9} {
		add(r, c.Dec0)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, d := range []float64{nan, inf, -inf, 90, -90, 100, -100, -300, 270} {
		add(c.Ra0, d)
		add(c.Ra0+180, d)
	}
	for _, r := range []float64{nan, inf, -inf} {
		add(r, c.Dec0)
	}
	return ra, dec
}

// checkConeKernel compares both entry points of the kernel with the
// reference (refMatch) on the given rows: the whole table and a random
// window through FilterRange, all rows and a random subset through
// FilterSel.
func checkConeKernel(t *testing.T, rng *rand.Rand, c Cone, ra, dec []float64) {
	t.Helper()
	tb := coneTable(t, ra, dec)
	n := len(ra)
	checkKernels(t, tb, c, 0, n, windowSel(0, n))
	sub := vec.Sel{}
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			sub = append(sub, int32(i))
		}
	}
	lo := rng.Intn(n)
	checkKernels(t, tb, c, lo, lo+rng.Intn(n-lo+1), sub)
}

// TestConeKernelMatchesReference: on random cones, polar cones, cones
// across the RA wrap and degenerate radii, over rows built to sit ulps
// from the boundary, the two-pass kernel selects exactly the rows the
// AngularSeparation reference selects, through both entry points.
func TestConeKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	var cones []Cone
	for i := 0; i < 200; i++ {
		cones = append(cones, Cone{
			Ra0:    rng.Float64() * 360,
			Dec0:   math.Asin(2*rng.Float64()-1) / d2r,
			Radius: math.Pow(10, -3+4.3*rng.Float64()), // 0.001° .. ~200°
		})
	}
	cones = append(cones,
		Cone{Ra0: 185, Dec0: 0, Radius: 3}, // the SkyServer cone
		Cone{Ra0: -2, Dec0: -2.308673878296645, Radius: 4.000548634482486},
		Cone{Ra0: 40, Dec0: 85, Radius: 5},  // touches the pole
		Cone{Ra0: 40, Dec0: 85, Radius: 10}, // covers the pole
		Cone{Ra0: 40, Dec0: -89.99, Radius: 0.5},
		Cone{Ra0: 0, Dec0: 90, Radius: 2},    // centred on the pole
		Cone{Ra0: 0.05, Dec0: 10, Radius: 1}, // across the 0/360 wrap
		Cone{Ra0: 359.95, Dec0: -10, Radius: 1},
		Cone{Ra0: 0, Dec0: 0, Radius: 0},
		Cone{Ra0: 0, Dec0: 0, Radius: -1},
		Cone{Ra0: 0, Dec0: 0, Radius: -1e-3},
		Cone{Ra0: 100, Dec0: 20, Radius: 90},
		Cone{Ra0: 100, Dec0: 20, Radius: 120},
		Cone{Ra0: 100, Dec0: 20, Radius: 180},
		Cone{Ra0: 100, Dec0: 20, Radius: 250},
		Cone{Ra0: 100, Dec0: 20, Radius: math.NaN()},
		Cone{Ra0: 100, Dec0: 20, Radius: math.Inf(1)},
		Cone{Ra0: 100, Dec0: 100, Radius: 3}, // centre off the sphere
		Cone{Ra0: math.NaN(), Dec0: 0, Radius: 3},
		Cone{Ra0: 0, Dec0: math.Inf(1), Radius: 3},
		Cone{Ra0: 10, Dec0: 0, Radius: 1e-200}, // threshold underflows
	)
	for _, c := range cones {
		c.RaCol, c.DecCol = "ra", "dec"
		ra, dec := coneRows(rng, c, 100)
		checkConeKernel(t, rng, c, ra, dec)
	}
}

// FuzzConeKernel: for an arbitrary cone and row, the kernel agrees with
// the reference on the row and on its ulp neighbours in dec and RA.
func FuzzConeKernel(f *testing.F) {
	f.Add(185.0, 0.0, 3.0, 186.0, 1.0)
	f.Add(-2.0, -2.308673878296645, 4.000548634482486, -2.0, 1.6918747561858416)
	f.Add(0.05, 10.0, 1.0, 359.9, 10.0)
	f.Add(40.0, 85.0, 10.0, 220.0, 88.0)
	f.Add(0.0, 0.0, -1.0, 0.0, 0.0)
	f.Add(100.0, 20.0, 180.0, 280.0, -20.0)
	f.Add(100.0, 100.0, 3.0, 280.0, 80.0)
	f.Add(0.0, 0.0, 3.0, math.NaN(), math.Inf(1))
	f.Fuzz(func(t *testing.T, ra0, dec0, radius, ra, dec float64) {
		c := Cone{RaCol: "ra", DecCol: "dec", Ra0: ra0, Dec0: dec0, Radius: radius}
		var ras, decs []float64
		for _, d := range nudges(nil, dec, 2) {
			for _, r := range nudges(nil, ra, 2) {
				ras, decs = append(ras, r), append(decs, d)
			}
		}
		checkConeKernel(t, rand.New(rand.NewSource(1)), c, ras, decs)
	})
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestConeKernelZeroAlloc: steady-state FilterRange and FilterSel on
// pooled scratch allocate nothing once the pool is warm.
func TestConeKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	c := Cone{RaCol: "ra", DecCol: "dec", Ra0: 185, Dec0: 0, Radius: 3}
	ra, dec := coneRows(rng, c, 2048)
	tb := coneTable(t, ra, dec)
	sel := vec.Sel{}
	for i := 0; i < len(ra); i += 3 {
		sel = append(sel, int32(i))
	}
	run := func() {
		rs, err := c.FilterRange(tb, 0, len(ra))
		if err != nil {
			t.Fatal(err)
		}
		vec.PutSel(rs)
		ss, err := c.FilterSel(tb, sel)
		if err != nil {
			t.Fatal(err)
		}
		vec.PutSel(ss)
	}
	run() // warm the pool
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("steady-state cone kernel allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkConeKernel reports the kernel's cost per visited row for the
// SkyServer cone over a 100k-row uniform sky band, on a contiguous
// range and on a sorted 10% gather.
func BenchmarkConeKernel(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(2011))
	ra, dec := make([]float64, n), make([]float64, n)
	for i := range ra {
		ra[i], dec[i] = 120+rng.Float64()*120, -30+rng.Float64()*60
	}
	tb := coneTable(b, ra, dec)
	c := Cone{RaCol: "ra", DecCol: "dec", Ra0: 185, Dec0: 0, Radius: 3}
	var gather vec.Sel
	for i := 0; i < n; i += 10 {
		gather = append(gather, int32(i))
	}
	b.Run("range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := c.FilterRange(tb, 0, n)
			vec.PutSel(s)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
	})
	b.Run("gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _ := c.FilterSel(tb, gather)
			vec.PutSel(s)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(gather)), "ns/row")
	})
}
