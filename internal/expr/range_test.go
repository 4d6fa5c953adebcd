package expr

import (
	"math"
	"math/rand"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// rangeTestTable builds a mixed-type table exercising every predicate
// shape: DOUBLE (ra/dec/r, with scattered NaN and ±Inf), BIGINT (objID),
// VARCHAR (type).
func rangeTestTable(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("objects", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "r", Type: column.Float64},
		{Name: "objID", Type: column.Int64},
		{Name: "type", Type: column.String},
	})
	rng := rand.New(rand.NewSource(7))
	kinds := []string{"GALAXY", "STAR", "QSO"}
	for i := 0; i < n; i++ {
		ra, dec, r := 120+rng.Float64()*120, rng.Float64()*60, 14+rng.Float64()*10
		switch i % 37 {
		case 3:
			ra = math.NaN()
		case 11:
			dec = math.Inf(1)
		case 19:
			r = math.Inf(-1)
		case 29:
			ra, dec = math.Inf(-1), math.NaN()
		}
		if err := tb.AppendRow(table.Row{ra, dec, r, int64(i), kinds[rng.Intn(len(kinds))]}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// rangePredicates enumerates one instance of every predicate type,
// including nested compositions.
func rangePredicates() []Predicate {
	return []Predicate{
		TruePred{},
		Cmp{Op: vec.Lt, Left: ColRef{Name: "ra"}, Right: 180},
		Cmp{Op: vec.Ge, Left: ColRef{Name: "dec"}, Right: 30},
		Cmp{Op: vec.Eq, Left: ColRef{Name: "objID"}, Right: 41}, // Int64 widening path
		Cmp{Op: vec.Ne, Left: ColRef{Name: "r"}, Right: 15},
		Cmp{Op: vec.Gt, Left: Arith{Op: Add, L: ColRef{Name: "ra"}, R: ColRef{Name: "dec"}}, Right: 200},
		Between{Expr: ColRef{Name: "ra"}, Lo: 150, Hi: 170},
		Between{Expr: ColRef{Name: "r"}, Lo: 0, Hi: 1},          // empty match
		Between{Expr: ColRef{Name: "objID"}, Lo: 100, Hi: 1200}, // both endpoints present
		StrEq{Col: "type", Value: "GALAXY"},
		StrEq{Col: "type", Value: "GALAXY", Neg: true},
		StrEq{Col: "type", Value: "NEBULA"},            // absent value
		StrEq{Col: "type", Value: "NEBULA", Neg: true}, // absent value, negated: all rows
		Cone{RaCol: "ra", DecCol: "dec", Ra0: 185, Dec0: 30, Radius: 10},
		And{L: Between{Expr: ColRef{Name: "ra"}, Lo: 140, Hi: 200}, R: StrEq{Col: "type", Value: "STAR"}},
		And{L: TruePred{}, R: Cmp{Op: vec.Lt, Left: ColRef{Name: "dec"}, Right: 20}},
		// L matches none, one, all but one and all rows of a window
		// holding objID 41; R refines whatever survived.
		And{L: Cmp{Op: vec.Lt, Left: ColRef{Name: "objID"}, Right: 0}, R: Cmp{Op: vec.Lt, Left: ColRef{Name: "dec"}, Right: 20}},
		And{L: Cmp{Op: vec.Eq, Left: ColRef{Name: "objID"}, Right: 41}, R: Cmp{Op: vec.Lt, Left: ColRef{Name: "dec"}, Right: 60}},
		And{L: Cmp{Op: vec.Ne, Left: ColRef{Name: "objID"}, Right: 41}, R: Between{Expr: ColRef{Name: "ra"}, Lo: 150, Hi: 200}},
		And{L: Cmp{Op: vec.Ge, Left: ColRef{Name: "objID"}, Right: 0}, R: StrEq{Col: "type", Value: "QSO"}},
		And{L: Between{Expr: ColRef{Name: "ra"}, Lo: 150, Hi: 200}, R: And{L: Cmp{Op: vec.Lt, Left: ColRef{Name: "r"}, Right: 20}, R: Not{P: StrEq{Col: "type", Value: "STAR"}}}},
		Or{L: Cmp{Op: vec.Lt, Left: ColRef{Name: "ra"}, Right: 130}, R: Cmp{Op: vec.Gt, Left: ColRef{Name: "ra"}, Right: 230}},
		Not{P: Between{Expr: ColRef{Name: "dec"}, Lo: 10, Hi: 50}},
		Not{P: And{
			L: Cmp{Op: vec.Gt, Left: ColRef{Name: "ra"}, Right: 160},
			R: Or{L: StrEq{Col: "type", Value: "QSO"}, R: Cmp{Op: vec.Lt, Left: ColRef{Name: "dec"}, Right: 5}},
		}},
		Cmp{Op: vec.Le, Left: Arith{Op: Mul, L: ColRef{Name: "objID"}, R: ColRef{Name: "r"}}, Right: 9000}, // Int64 × DOUBLE
		Cmp{Op: vec.Ne, Left: ColRef{Name: "dec"}, Right: math.Inf(1)},
		Between{Expr: ColRef{Name: "r"}, Lo: math.Inf(-1), Hi: 20},
		Not{P: StrEq{Col: "type", Value: "NEBULA", Neg: true}}, // absent value under Neg, negated: no rows
		Or{
			L: Not{P: Or{L: Cmp{Op: vec.Lt, Left: ColRef{Name: "ra"}, Right: 150}, R: StrEq{Col: "type", Value: "STAR"}}},
			R: Not{P: Not{P: Between{Expr: Arith{Op: Sub, L: ColRef{Name: "ra"}, R: ColRef{Name: "objID"}}, Lo: -100, Hi: 100}}},
		},
	}
}

// TestFilterRangeEquivalence is the tentpole property test: for every
// predicate type, FilterRange over fixed and random windows and
// FilterSel over random position sets (empty, gapless runs, sparse)
// select exactly the rows the row-at-a-time reference selects.
func TestFilterRangeEquivalence(t *testing.T) {
	const n = 2000
	tb := rangeTestTable(t, n)
	rng := rand.New(rand.NewSource(99))
	windows := [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n - 1, n}}
	for i := 0; i < 40; i++ {
		lo, hi := randWindow(rng, n)
		windows = append(windows, [2]int{lo, hi})
	}
	for _, pred := range rangePredicates() {
		for _, w := range windows {
			checkKernels(t, tb, pred, w[0], w[1], randPositions(rng, n))
		}
	}
}

// TestAndFilterRangeZeroAlloc: a steady-state two-conjunct FilterRange
// in the shape of the scan workload's aggregate filter (a BETWEEN window
// refined by a comparison) allocates nothing on pooled scratch once the
// pool is warm.
func TestAndFilterRangeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = 4096
	tb := rangeTestTable(t, n)
	p := And{
		L: Between{Expr: ColRef{Name: "ra"}, Lo: 150, Hi: 180},
		R: Cmp{Op: vec.Lt, Left: ColRef{Name: "r"}, Right: 20},
	}
	run := func() {
		sel, err := p.FilterRange(tb, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		vec.PutSel(sel)
	}
	run() // warm the pool
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("steady-state conjunction allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBounds pins the necessary-interval reporting per predicate shape.
func TestBounds(t *testing.T) {
	if b := BoundsOf(Cmp{Op: vec.Eq, Left: ColRef{Name: "x"}, Right: 3}); len(b) != 1 || b[0].Lo != 3 || b[0].Hi != 3 {
		t.Fatalf("Eq bounds = %v", b)
	}
	if b := BoundsOf(Cmp{Op: vec.Ne, Left: ColRef{Name: "x"}, Right: 3}); b != nil {
		t.Fatalf("Ne bounds = %v, want none", b)
	}
	if b := BoundsOf(Between{Expr: ColRef{Name: "x"}, Lo: 1, Hi: 2}); len(b) != 1 || b[0].Lo != 1 || b[0].Hi != 2 {
		t.Fatalf("Between bounds = %v", b)
	}
	if b := BoundsOf(Cone{RaCol: "ra", DecCol: "dec", Dec0: 10, Radius: 3}); len(b) != 1 || b[0].Attr != "dec" || b[0].Lo != 10-(3+coneMargin) || b[0].Hi != 10+(3+coneMargin) {
		t.Fatalf("Cone bounds = %v", b)
	}
	if b := BoundsOf(Cone{RaCol: "ra", DecCol: "dec", Dec0: 100, Radius: 3}); b != nil {
		t.Fatalf("off-sphere Cone bounds = %v, want none", b)
	}
	and := And{
		L: Between{Expr: ColRef{Name: "x"}, Lo: 1, Hi: 2},
		R: Cmp{Op: vec.Gt, Left: ColRef{Name: "y"}, Right: 5},
	}
	if b := BoundsOf(and); len(b) != 2 {
		t.Fatalf("And bounds = %v", b)
	}
	or := Or{
		L: Between{Expr: ColRef{Name: "x"}, Lo: 1, Hi: 2},
		R: Between{Expr: ColRef{Name: "x"}, Lo: 8, Hi: 9},
	}
	if b := BoundsOf(or); len(b) != 1 || b[0].Lo != 1 || b[0].Hi != 9 {
		t.Fatalf("Or hull bounds = %v", b)
	}
	// One-sided Or: the y bound exists only on one branch → no bound.
	mixed := Or{
		L: Between{Expr: ColRef{Name: "x"}, Lo: 1, Hi: 2},
		R: Cmp{Op: vec.Gt, Left: ColRef{Name: "y"}, Right: 5},
	}
	if b := BoundsOf(mixed); b != nil {
		t.Fatalf("mixed Or bounds = %v, want none", b)
	}
	if b := BoundsOf(Not{P: and}); b != nil {
		t.Fatalf("Not bounds = %v, want none", b)
	}
	if b := BoundsOf(StrEq{Col: "type", Value: "GALAXY"}); b != nil {
		t.Fatalf("StrEq bounds = %v, want none", b)
	}
}

// TestBoxes pins the boxes per predicate shape: a cone's box is its
// kernel's pass-1 box — the band of Bounds by the very RA test the
// kernel applies — while a cone without an RA test falls back to its
// band, and every other shape reports its bounds.
func TestBoxes(t *testing.T) {
	tb := table.MustNew("sky", table.Schema{{Name: "ra", Type: column.Float64}, {Name: "dec", Type: column.Float64}})
	for _, c := range []Cone{
		{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 30, Radius: 3},
		{RaCol: "ra", DecCol: "dec", Ra0: 0.5, Dec0: -60, Radius: 12},
		{RaCol: "ra", DecCol: "dec", Ra0: -400, Dec0: 0, Radius: 0},
	} {
		b := BoxesOf(c)
		k, err := c.kernel(tb)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != 1 || b[0].Bound != c.Bounds()[0] || b[0].Col != "ra" ||
			b[0].Center != k.ra0 || b[0].Near != k.dRA || b[0].Far != k.dRAWrap {
			t.Fatalf("%s: boxes %+v, kernel box ra0 %v dRA %v dRAWrap %v", c, b, k.ra0, k.dRA, k.dRAWrap)
		}
	}
	for _, c := range []Cone{
		{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 88, Radius: 4},
		{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 0, Radius: 90},
		{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 0, Radius: -1},
		{RaCol: "ra", DecCol: "dec", Ra0: math.Inf(1), Dec0: 0, Radius: 3},
		{RaCol: "ra", DecCol: "dec", Ra0: math.NaN(), Dec0: 0, Radius: 3},
	} {
		if b := BoxesOf(c); len(b) != 1 || b[0].Col != "" || b[0].Bound != c.Bounds()[0] {
			t.Fatalf("%s: boxes %+v, want its band alone", c, b)
		}
	}
	if b := BoxesOf(Cone{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 95, Radius: 3}); b != nil {
		t.Fatalf("off-sphere Cone boxes = %+v, want none", b)
	}
	cone := Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 30, Radius: 3}
	x := Between{Expr: ColRef{Name: "x"}, Lo: 1, Hi: 2}
	if b := BoxesOf(And{L: x, R: cone}); len(b) != 2 || b[0].Col != "" || b[0].Bound != x.Bounds()[0] || b[1].Col != "ra" {
		t.Fatalf("And boxes = %+v", b)
	}
	or := Or{L: cone, R: Cone{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 40, Radius: 3}}
	if b := BoxesOf(or); len(b) != 1 || b[0].Col != "" || b[0].Bound != or.Bounds()[0] {
		t.Fatalf("Or of cones boxes = %+v, want the band hull", b)
	}
	if b := BoxesOf(Not{P: x}); b != nil {
		t.Fatalf("Not boxes = %+v, want none", b)
	}
}
