package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// refScalar evaluates s at one row of t, reading the columns directly.
func refScalar(s Scalar, t *table.Table, row int32) float64 {
	switch e := s.(type) {
	case ColRef:
		col, err := t.Col(e.Name)
		if err != nil {
			panic(err)
		}
		switch c := col.(type) {
		case *column.Float64Col:
			return c.Data[row]
		case *column.Int64Col:
			return float64(c.Data[row])
		}
		panic(fmt.Sprintf("refScalar: column %q is %s", e.Name, col.Type()))
	case Const:
		return e.V
	case Materialized:
		return e.Vals[row]
	case Arith:
		l, r := refScalar(e.L, t, row), refScalar(e.R, t, row)
		switch e.Op {
		case Add:
			return l + r
		case Sub:
			return l - r
		case Mul:
			return l * r
		case Div:
			return l / r
		}
	}
	panic(fmt.Sprintf("refScalar: unsupported scalar %T", s))
}

// refMatch is the row-at-a-time oracle the FilterRange and FilterSel
// kernels are checked against: it decides one row of t with SQL and IEEE
// semantics, without selection vectors, scratch pools or kernels.
func refMatch(p Predicate, t *table.Table, row int32) bool {
	switch q := p.(type) {
	case Cmp:
		v := refScalar(q.Left, t, row)
		switch q.Op {
		case vec.Eq:
			return v == q.Right
		case vec.Ne:
			return v != q.Right
		case vec.Lt:
			return v < q.Right
		case vec.Le:
			return v <= q.Right
		case vec.Gt:
			return v > q.Right
		case vec.Ge:
			return v >= q.Right
		}
		return false
	case Between:
		v := refScalar(q.Expr, t, row)
		return v >= q.Lo && v <= q.Hi
	case StrEq:
		col, err := t.Col(q.Col)
		if err != nil {
			panic(err)
		}
		return (col.(*column.StringCol).Value(row) == q.Value) != q.Neg
	case Cone:
		// The oracle every cone kernel entry point must reproduce: a
		// dec off the sphere (outside [-90, 90], NaN, ±Inf) never matches.
		ra, dec := refScalar(ColRef{Name: q.RaCol}, t, row), refScalar(ColRef{Name: q.DecCol}, t, row)
		return math.Abs(dec) <= 90 && AngularSeparation(q.Ra0, q.Dec0, ra, dec) <= q.Radius
	case And:
		return refMatch(q.L, t, row) && refMatch(q.R, t, row)
	case Or:
		return refMatch(q.L, t, row) || refMatch(q.R, t, row)
	case Not:
		return !refMatch(q.P, t, row)
	case TruePred:
		return true
	}
	panic(fmt.Sprintf("refMatch: unsupported predicate %T", p))
}

// refFilter returns the rows of sel that refMatch accepts.
func refFilter(p Predicate, t *table.Table, sel vec.Sel) vec.Sel {
	out := vec.Sel{}
	for _, row := range sel {
		if refMatch(p, t, row) {
			out = append(out, row)
		}
	}
	return out
}

// windowSel returns the rows [lo, hi).
func windowSel(lo, hi int) vec.Sel {
	out := vec.Sel{}
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

// randWindow returns a random window of [0, n).
func randWindow(rng *rand.Rand, n int) (lo, hi int) {
	lo = rng.Intn(n + 1)
	return lo, lo + rng.Intn(n+1-lo)
}

// randPositions returns a sorted random subset of [0, n): empty, a
// gapless run, or each row kept with a random probability.
func randPositions(rng *rand.Rand, n int) vec.Sel {
	switch rng.Intn(4) {
	case 0:
		return vec.Sel{}
	case 1:
		return windowSel(randWindow(rng, n))
	}
	p := rng.Float64()
	out := vec.Sel{}
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			out = append(out, int32(i))
		}
	}
	return out
}

// checkKernels asserts that p.FilterRange over [lo, hi) and p.FilterSel
// over sel both return exactly the rows refMatch accepts, as non-nil
// selections.
func checkKernels(t testing.TB, tb *table.Table, p Predicate, lo, hi int, sel vec.Sel) {
	t.Helper()
	got, err := p.FilterRange(tb, lo, hi)
	if err != nil {
		t.Fatalf("%s FilterRange[%d,%d): %v", p, lo, hi, err)
	}
	if want := refFilter(p, tb, windowSel(lo, hi)); got == nil || !slices.Equal(got, want) {
		t.Fatalf("%s FilterRange[%d,%d) = %v, reference %v", p, lo, hi, got, want)
	}
	vec.PutSel(got)
	got, err = p.FilterSel(tb, sel)
	if err != nil {
		t.Fatalf("%s FilterSel: %v", p, err)
	}
	if want := refFilter(p, tb, sel); got == nil || !slices.Equal(got, want) {
		t.Fatalf("%s FilterSel(%v) = %v, reference %v", p, sel, got, want)
	}
	vec.PutSel(got)
}

// fuzzTable is the fixed table FuzzPredicateKernels decodes predicates
// over: NaN, ±Inf and duplicate DOUBLE values, a BIGINT column and a
// VARCHAR column with repeated words.
func fuzzTable(tb testing.TB) *table.Table {
	tb.Helper()
	nan, inf := math.NaN(), math.Inf(1)
	xs := []float64{0, 1, nan, -1, inf, 1, -inf, 0.5, 2, nan, 2, -0.5, 0, inf, 1, -2}
	is := []int64{3, -1, 0, 2, 2, 7, -4, 1, 0, 5, 3, 3, -1, 9, 0, 2}
	ss := []string{"a", "b", "a", "c", "b", "b", "a", "c", "c", "a", "b", "a", "c", "a", "b", "c"}
	t := table.MustNew("fuzz", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "i", Type: column.Int64},
		{Name: "s", Type: column.String},
	})
	for r := range xs {
		if err := t.AppendRow(table.Row{xs[r], is[r], ss[r]}); err != nil {
			tb.Fatal(err)
		}
	}
	return t
}

// predDecoder turns fuzz bytes into a predicate tree; exhausted input
// reads as zeros, so every byte string decodes.
type predDecoder struct{ b []byte }

func (d *predDecoder) next() int {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return int(c)
}

var fuzzConsts = []float64{math.NaN(), math.Inf(-1), -1, 0, 0.5, 1, 2, 3, math.Inf(1)}

func (d *predDecoder) konst() float64 { return fuzzConsts[d.next()%len(fuzzConsts)] }

func (d *predDecoder) scalar() Scalar {
	switch d.next() % 4 {
	case 0:
		return ColRef{Name: "x"}
	case 1:
		return ColRef{Name: "i"}
	case 2:
		return Arith{Op: ArithOp(d.next() % 4), L: ColRef{Name: "x"}, R: ColRef{Name: "i"}}
	}
	return Arith{Op: ArithOp(d.next() % 4), L: ColRef{Name: "i"}, R: Const{V: d.konst()}}
}

func (d *predDecoder) pred(depth int) Predicate {
	kinds := 7
	if depth == 0 {
		kinds = 4 // leaves only
	}
	switch d.next() % kinds {
	case 0:
		return Cmp{Op: vec.CmpOp(d.next() % 6), Left: d.scalar(), Right: d.konst()}
	case 1:
		return Between{Expr: d.scalar(), Lo: d.konst(), Hi: d.konst()}
	case 2:
		return StrEq{Col: "s", Value: []string{"a", "b", "c", "zz"}[d.next()%4], Neg: d.next()%2 == 1}
	case 3:
		return TruePred{}
	case 4:
		return And{L: d.pred(depth - 1), R: d.pred(depth - 1)}
	case 5:
		return Or{L: d.pred(depth - 1), R: d.pred(depth - 1)}
	}
	return Not{P: d.pred(depth - 1)}
}

// FuzzPredicateKernels: for an arbitrary predicate tree over the fixed
// fuzz table, an arbitrary window and an arbitrary position set, both
// kernels select exactly the rows the row-at-a-time reference selects.
func FuzzPredicateKernels(f *testing.F) {
	f.Add([]byte{0, 0, 2, 3}, uint8(0), uint8(16), uint16(0xffff))
	f.Add([]byte{4, 0, 1, 0, 5, 2, 3, 1}, uint8(3), uint8(9), uint16(0x0f0f))
	f.Add([]byte{6, 5, 2, 3, 1, 1, 2, 0, 0, 8}, uint8(5), uint8(5), uint16(0))
	f.Add([]byte{5, 6, 0, 2, 4, 0, 3, 3, 1, 2, 0, 4}, uint8(16), uint8(0), uint16(0x8001))
	tb := fuzzTable(f)
	n := tb.Len()
	f.Fuzz(func(t *testing.T, code []byte, lo8, span8 uint8, mask uint16) {
		p := (&predDecoder{b: code}).pred(4)
		lo := int(lo8) % (n + 1)
		hi := lo + int(span8)%(n+1-lo)
		sel := vec.Sel{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, int32(i))
			}
		}
		checkKernels(t, tb, p, lo, hi, sel)
	})
}
