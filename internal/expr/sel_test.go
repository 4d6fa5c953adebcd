package expr

import (
	"math"
	"math/rand"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// selFixture builds a table with every column shape the predicate types
// touch.
func selFixture(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb, err := table.New("sel_fixture", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "i", Type: column.Int64},
		{Name: "s", Type: column.String},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
	})
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"STAR", "GALAXY", "QSO"}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for r := 0; r < n; r++ {
		x := rng.NormFloat64()
		if r%50 < len(specials) {
			x = specials[r%50]
		}
		row := table.Row{
			x,
			int64(rng.Intn(10)),
			words[rng.Intn(len(words))],
			rng.Float64() * 360,
			rng.Float64()*180 - 90,
		}
		if err := tb.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// selPredicates returns the predicate shapes under test.
func selPredicates() []Predicate {
	x := ColRef{Name: "x"}
	return []Predicate{
		Cmp{Op: vec.Lt, Left: x, Right: 0.3},
		Cmp{Op: vec.Ge, Left: ColRef{Name: "i"}, Right: 5},
		Between{Expr: x, Lo: -0.5, Hi: 0.5},
		Between{Expr: ColRef{Name: "i"}, Lo: 2, Hi: 5}, // both endpoints present
		Between{Expr: Arith{Op: Add, L: x, R: Const{V: 1}}, Lo: 0.8, Hi: 1.2},
		StrEq{Col: "s", Value: "GALAXY"},
		StrEq{Col: "s", Value: "GALAXY", Neg: true},
		StrEq{Col: "s", Value: "NOWHERE"},
		StrEq{Col: "s", Value: "NOWHERE", Neg: true},
		Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 0, Radius: 30},
		And{L: Cmp{Op: vec.Gt, Left: x, Right: -1}, R: Cmp{Op: vec.Lt, Left: x, Right: 1}},
		And{L: Cmp{Op: vec.Gt, Left: x, Right: 99}, R: Cmp{Op: vec.Lt, Left: x, Right: 1}},
		Or{L: Cmp{Op: vec.Lt, Left: x, Right: -1}, R: Cmp{Op: vec.Gt, Left: x, Right: 1}},
		Not{P: Between{Expr: x, Lo: -0.25, Hi: 0.25}},
		Not{P: Not{P: Cmp{Op: vec.Le, Left: x, Right: 0}}},
		TruePred{},
	}
}

// TestFilterSelMatchesFilter asserts FilterSel and FilterRange select
// exactly the rows the row-at-a-time reference selects, for every
// predicate type over random selections (including the empty one and
// gapless runs) and random windows.
func TestFilterSelMatchesFilter(t *testing.T) {
	tb := selFixture(t, 2000, 3)
	n := tb.Len()
	rng := rand.New(rand.NewSource(5))
	sels := []vec.Sel{{}, vec.NewSelAll(n), windowSel(100, 900)}
	for _, p := range []float64{0.02, 0.3, 0.8} {
		s := vec.Sel{}
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				s = append(s, int32(i))
			}
		}
		sels = append(sels, s)
	}
	for _, pred := range selPredicates() {
		for _, sel := range sels {
			lo, hi := randWindow(rng, n)
			checkKernels(t, tb, pred, lo, hi, sel)
		}
	}
}

// TestEvalScalarSelMatchesFull asserts sel-native scalar evaluation
// equals the full-column evaluation gathered at the same rows, for
// every scalar shape including the widening and arithmetic paths.
func TestEvalScalarSelMatchesFull(t *testing.T) {
	tb := selFixture(t, 500, 21)
	sel := vec.Sel{0, 3, 17, 255, 499}
	scalars := []Scalar{
		ColRef{Name: "x"},
		ColRef{Name: "i"}, // int64 widening
		Const{V: 2.5},
		Arith{Op: Mul, L: ColRef{Name: "x"}, R: Arith{Op: Add, L: ColRef{Name: "i"}, R: Const{V: 1}}},
		Arith{Op: Div, L: ColRef{Name: "x"}, R: Const{V: 0}}, // IEEE ±Inf
		Materialized{Vals: make([]float64, 500), Desc: "zeros"},
	}
	for _, s := range scalars {
		got, err := EvalScalarSel(tb, s, sel)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		full, err := s.EvalF64(tb)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sel) {
			t.Fatalf("%s: %d values for %d rows", s, len(got), len(sel))
		}
		for i, p := range sel {
			w := full[p]
			if got[i] != w && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
				t.Errorf("%s: row %d = %v, want %v", s, p, got[i], w)
			}
		}
	}
	if _, err := EvalScalarSel(tb, ColRef{Name: "missing"}, sel); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := EvalScalarSel(tb, ColRef{Name: "s"}, sel); err == nil {
		t.Error("non-numeric column accepted")
	}
}

// TestFilterSelErrors asserts bad column references surface as errors
// through every composite shape.
func TestFilterSelErrors(t *testing.T) {
	tb := selFixture(t, 64, 9)
	sel := vec.NewSelAll(tb.Len())
	bad := Cmp{Op: vec.Lt, Left: ColRef{Name: "missing"}, Right: 0}
	for _, pred := range []Predicate{
		bad,
		And{L: TruePred{}, R: bad},
		And{L: Cmp{Op: vec.Gt, Left: ColRef{Name: "x"}, Right: 0}, R: bad}, // R fails after L matched part of the rows
		Or{L: bad, R: TruePred{}},
		Not{P: bad},
		StrEq{Col: "x", Value: "GALAXY"},
	} {
		if _, err := pred.FilterSel(tb, sel); err == nil {
			t.Errorf("FilterSel(%s) did not fail", pred)
		}
		if _, err := pred.FilterRange(tb, 0, tb.Len()); err == nil {
			t.Errorf("FilterRange(%s) did not fail", pred)
		}
	}
}
