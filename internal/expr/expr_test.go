package expr

import (
	"math"
	"reflect"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

func testTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "type", Type: column.String},
	})
	rows := []table.Row{
		{int64(1), 185.0, 0.0, "GALAXY"},
		{int64(2), 185.5, 0.5, "GALAXY"},
		{int64(3), 190.0, 2.0, "STAR"},
		{int64(4), 120.0, 45.0, "QSO"},
		{int64(5), 186.0, -0.5, "GALAXY"},
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestColRefFloatAndInt(t *testing.T) {
	tb := testTable(t)
	ra, err := ColRef{"ra"}.EvalF64(tb)
	if err != nil {
		t.Fatal(err)
	}
	if ra[0] != 185.0 {
		t.Fatalf("ra[0] = %v", ra[0])
	}
	ids, err := ColRef{"objID"}.EvalF64(tb)
	if err != nil {
		t.Fatal(err)
	}
	if ids[2] != 3.0 {
		t.Fatalf("widened objID[2] = %v", ids[2])
	}
	if _, err := (ColRef{"type"}).EvalF64(tb); err == nil {
		t.Fatal("string column evaluated as numeric")
	}
	if _, err := (ColRef{"missing"}).EvalF64(tb); err == nil {
		t.Fatal("missing column evaluated")
	}
}

func TestConstAndArith(t *testing.T) {
	tb := testTable(t)
	c, err := Const{2}.EvalF64(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 5 || c[4] != 2 {
		t.Fatalf("const column = %v", c)
	}
	sum, err := Arith{Add, ColRef{"ra"}, ColRef{"dec"}}.EvalF64(tb)
	if err != nil {
		t.Fatal(err)
	}
	if sum[1] != 186.0 {
		t.Fatalf("ra+dec = %v", sum[1])
	}
	diff, _ := Arith{Sub, ColRef{"ra"}, Const{100}}.EvalF64(tb)
	if diff[3] != 20 {
		t.Fatalf("ra-100 = %v", diff[3])
	}
	prod, _ := Arith{Mul, Const{2}, ColRef{"dec"}}.EvalF64(tb)
	if prod[3] != 90 {
		t.Fatalf("2*dec = %v", prod[3])
	}
	quot, _ := Arith{Div, ColRef{"ra"}, Const{0}}.EvalF64(tb)
	if !math.IsInf(quot[0], 1) {
		t.Fatalf("x/0 = %v, want +Inf", quot[0])
	}
	if s := (Arith{Add, ColRef{"ra"}, Const{1}}).String(); s != "(ra + 1)" {
		t.Fatalf("String = %q", s)
	}
}

// filterAll evaluates p over every row of tb through FilterRange.
func filterAll(t *testing.T, tb *table.Table, p Predicate) vec.Sel {
	t.Helper()
	sel, err := p.FilterRange(tb, 0, tb.Len())
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// filterSel evaluates p over the rows of tb listed in sel.
func filterSel(t *testing.T, tb *table.Table, p Predicate, sel vec.Sel) vec.Sel {
	t.Helper()
	out, err := p.FilterSel(tb, sel)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCmpFilter(t *testing.T) {
	tb := testTable(t)
	want := vec.Sel{1, 2, 4}
	if sel := filterAll(t, tb, Cmp{vec.Ge, ColRef{"ra"}, 185.5}); !reflect.DeepEqual(sel, want) {
		t.Fatalf("sel = %v, want %v", sel, want)
	}
	// Restricted by an input selection.
	if sel := filterSel(t, tb, Cmp{vec.Ge, ColRef{"ra"}, 185.5}, vec.Sel{0, 1}); !reflect.DeepEqual(sel, vec.Sel{1}) {
		t.Fatalf("restricted sel = %v", sel)
	}
	// Through a computed expression.
	if sel := filterAll(t, tb, Cmp{vec.Gt, Arith{Add, ColRef{"ra"}, ColRef{"dec"}}, 190}); !reflect.DeepEqual(sel, vec.Sel{2}) {
		t.Fatalf("computed predicate sel = %v", sel)
	}
}

func TestCmpPointsAndString(t *testing.T) {
	c := Cmp{vec.Lt, ColRef{"dec"}, 30}
	pts := c.Points()
	if len(pts) != 1 || pts[0] != (Point{"dec", 30}) {
		t.Fatalf("Points = %v", pts)
	}
	if c.String() != "dec < 30" {
		t.Fatalf("String = %q", c.String())
	}
	if pts := (Cmp{vec.Lt, Const{1}, 2}).Points(); pts != nil {
		t.Fatalf("const cmp points = %v", pts)
	}
}

func TestBetween(t *testing.T) {
	tb := testTable(t)
	b := Between{ColRef{"ra"}, 185.0, 186.0}
	want := vec.Sel{0, 1, 4} // inclusive both ends
	if sel := filterAll(t, tb, b); !reflect.DeepEqual(sel, want) {
		t.Fatalf("between sel = %v, want %v", sel, want)
	}
	pts := b.Points()
	if len(pts) != 1 || pts[0] != (Point{"ra", 185.5}) {
		t.Fatalf("between points = %v", pts)
	}
	if b.String() != "ra BETWEEN 185 AND 186" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestStrEq(t *testing.T) {
	tb := testTable(t)
	if sel := filterAll(t, tb, StrEq{Col: "type", Value: "GALAXY"}); !reflect.DeepEqual(sel, vec.Sel{0, 1, 4}) {
		t.Fatalf("galaxy sel = %v", sel)
	}
	if sel := filterAll(t, tb, StrEq{Col: "type", Value: "GALAXY", Neg: true}); !reflect.DeepEqual(sel, vec.Sel{2, 3}) {
		t.Fatalf("non-galaxy sel = %v", sel)
	}
	// Absent value: = gives empty, <> gives everything.
	if sel := filterAll(t, tb, StrEq{Col: "type", Value: "NEBULA"}); len(sel) != 0 {
		t.Fatalf("absent value sel = %v", sel)
	}
	if sel := filterSel(t, tb, StrEq{Col: "type", Value: "NEBULA", Neg: true}, vec.Sel{1, 2}); !reflect.DeepEqual(sel, vec.Sel{1, 2}) {
		t.Fatalf("absent <> sel = %v", sel)
	}
	if _, err := (StrEq{Col: "ra", Value: "x"}).FilterRange(tb, 0, tb.Len()); err == nil {
		t.Fatal("StrEq on DOUBLE accepted")
	}
	if (StrEq{Col: "type", Value: "QSO"}).Points() != nil {
		t.Fatal("string predicate should log no numeric points")
	}
	if s := (StrEq{Col: "type", Value: "QSO", Neg: true}).String(); s != "type <> 'QSO'" {
		t.Fatalf("String = %q", s)
	}
}

func TestAndOrNot(t *testing.T) {
	tb := testTable(t)
	galaxy := StrEq{Col: "type", Value: "GALAXY"}
	nearEq := Cmp{vec.Le, ColRef{"dec"}, 0.0}

	and := And{galaxy, nearEq}
	if sel := filterAll(t, tb, and); !reflect.DeepEqual(sel, vec.Sel{0, 4}) {
		t.Fatalf("AND sel = %v", sel)
	}

	or := Or{Cmp{vec.Gt, ColRef{"dec"}, 40.0}, Cmp{vec.Gt, ColRef{"ra"}, 189.0}}
	if sel := filterAll(t, tb, or); !reflect.DeepEqual(sel, vec.Sel{2, 3}) {
		t.Fatalf("OR sel = %v", sel)
	}

	not := Not{galaxy}
	if sel := filterAll(t, tb, not); !reflect.DeepEqual(sel, vec.Sel{2, 3}) {
		t.Fatalf("NOT sel = %v", sel)
	}
	// NOT respects the incoming selection.
	if sel := filterSel(t, tb, not, vec.Sel{0, 2}); !reflect.DeepEqual(sel, vec.Sel{2}) {
		t.Fatalf("NOT with sel = %v", sel)
	}
}

func TestBooleanPointsAggregation(t *testing.T) {
	p := And{
		Cmp{vec.Eq, ColRef{"ra"}, 185},
		Or{Cmp{vec.Eq, ColRef{"dec"}, 0}, Cmp{vec.Eq, ColRef{"dec"}, 10}},
	}
	pts := p.Points()
	if len(pts) != 3 {
		t.Fatalf("points = %v", pts)
	}
	n := Not{Cmp{vec.Eq, ColRef{"ra"}, 200}}
	if len(n.Points()) != 1 {
		t.Fatal("NOT should forward points")
	}
}

func TestCone(t *testing.T) {
	tb := testTable(t)
	cone := Cone{RaCol: "ra", DecCol: "dec", Ra0: 185, Dec0: 0, Radius: 3}
	// Rows 0,1,4 are within ~1.1 deg; row 2 is ~5.4 deg away; row 3 far.
	if sel := filterAll(t, tb, cone); !reflect.DeepEqual(sel, vec.Sel{0, 1, 4}) {
		t.Fatalf("cone sel = %v", sel)
	}
	pts := cone.Points()
	if len(pts) != 2 || pts[0] != (Point{"ra", 185}) || pts[1] != (Point{"dec", 0}) {
		t.Fatalf("cone points = %v", pts)
	}
	if cone.String() != "fGetNearbyObjEq(185, 0, 3)" {
		t.Fatalf("String = %q", cone.String())
	}
	if _, err := (Cone{RaCol: "missing", DecCol: "dec"}).FilterRange(tb, 0, tb.Len()); err == nil {
		t.Fatal("missing ra column accepted")
	}
	if _, err := (Cone{RaCol: "ra", DecCol: "missing"}).FilterSel(tb, vec.Sel{0}); err == nil {
		t.Fatal("missing dec column accepted")
	}
}

func TestAngularSeparation(t *testing.T) {
	if d := AngularSeparation(0, 0, 0, 0); d != 0 {
		t.Fatalf("zero separation = %v", d)
	}
	if d := AngularSeparation(0, 0, 90, 0); math.Abs(d-90) > 1e-9 {
		t.Fatalf("quarter turn = %v", d)
	}
	if d := AngularSeparation(0, 0, 180, 0); math.Abs(d-180) > 1e-9 {
		t.Fatalf("half turn = %v", d)
	}
	// At dec=60, one degree of ra is ~0.5 degrees of arc.
	d := AngularSeparation(10, 60, 11, 60)
	if math.Abs(d-0.5) > 0.01 {
		t.Fatalf("ra compression at high dec: %v", d)
	}
	// Symmetry.
	if AngularSeparation(1, 2, 3, 4) != AngularSeparation(3, 4, 1, 2) {
		t.Fatal("separation not symmetric")
	}
}

func TestTruePred(t *testing.T) {
	tb := testTable(t)
	if sel := filterAll(t, tb, TruePred{}); !reflect.DeepEqual(sel, vec.NewSelAll(tb.Len())) {
		t.Fatalf("TruePred = %v", sel)
	}
	if sel := filterSel(t, tb, TruePred{}, vec.Sel{1, 3}); !reflect.DeepEqual(sel, vec.Sel{1, 3}) {
		t.Fatalf("TruePred over a selection = %v", sel)
	}
	if (TruePred{}).Points() != nil || (TruePred{}).String() != "TRUE" {
		t.Fatal("TruePred metadata wrong")
	}
}
