// Package expr defines the expression language of the SciBORQ query
// engine: scalar expressions over table columns and boolean predicates
// that evaluate to selection vectors, column-at-a-time.
//
// Predicates also know how to report the attribute values they request
// (Points), which is how the workload logger of §4 builds the predicate
// set that steers biased sampling.
package expr

import (
	"fmt"
	"strings"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Scalar is a numeric expression evaluated over a whole table into a
// materialised float64 column (the column-at-a-time contract).
type Scalar interface {
	// EvalF64 returns the expression value for every row of t.
	EvalF64(t *table.Table) ([]float64, error)
	// String renders the expression in SQL-ish syntax.
	String() string
}

// Predicate is a boolean expression evaluated into a selection vector,
// either over a contiguous row window (range.go) or over an explicit
// position list (sel.go) — the two shapes a morsel of the engine's scan
// takes.
//
// Both evaluators return a sorted selection that is never nil (an empty
// selection means no match). It is backed by vec's scratch pool: the
// caller owns it until it calls vec.PutSel, and must copy it before
// retaining it beyond that.
type Predicate interface {
	// FilterRange evaluates the predicate over the row window [lo, hi) of
	// t; the result contains only positions in [lo, hi).
	FilterRange(t *table.Table, lo, hi int) (vec.Sel, error)
	// FilterSel evaluates the predicate over exactly the rows of t listed
	// in sel, which is sorted ascending, never nil and treated as
	// read-only; the result is a subset of sel.
	FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error)
	// Points reports the attribute values this predicate requests; the
	// workload logger feeds them into per-attribute histograms (§4).
	Points() []Point
	// String renders the predicate in SQL-ish syntax.
	String() string
}

// Point is one logged predicate value: the query asked about Value on
// attribute Attr.
type Point struct {
	Attr  string
	Value float64
}

// ColRef is a reference to a numeric column.
type ColRef struct{ Name string }

// EvalF64 implements Scalar. Int64 columns are widened to float64.
func (c ColRef) EvalF64(t *table.Table) ([]float64, error) {
	col, err := t.Col(c.Name)
	if err != nil {
		return nil, err
	}
	switch cc := col.(type) {
	case *column.Float64Col:
		return cc.Data, nil
	case *column.Int64Col:
		out := make([]float64, len(cc.Data))
		for i, v := range cc.Data {
			out[i] = float64(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: column %q has non-numeric type %s", c.Name, col.Type())
	}
}

// String implements Scalar.
func (c ColRef) String() string { return c.Name }

// Const is a numeric literal.
type Const struct{ V float64 }

// EvalF64 implements Scalar: a constant column.
func (c Const) EvalF64(t *table.Table) ([]float64, error) {
	out := make([]float64, t.Len())
	for i := range out {
		out[i] = c.V
	}
	return out, nil
}

// String implements Scalar.
func (c Const) String() string { return fmt.Sprintf("%g", c.V) }

// Materialized is a scalar whose values were evaluated once up front.
// The morsel-parallel executor rewrites predicate scalars into this
// form so one materialisation (e.g. an Int64 widening or an Arith
// intermediate) is shared by every morsel instead of being recomputed
// per morsel.
type Materialized struct {
	Vals []float64
	Desc string // original expression rendering, kept for messages
}

// EvalF64 implements Scalar.
func (m Materialized) EvalF64(t *table.Table) ([]float64, error) { return m.Vals, nil }

// String implements Scalar.
func (m Materialized) String() string { return m.Desc }

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Arith applies an arithmetic operator element-wise.
type Arith struct {
	Op   ArithOp
	L, R Scalar
}

// EvalF64 implements Scalar.
func (a Arith) EvalF64(t *table.Table) ([]float64, error) {
	l, err := a.L.EvalF64(t)
	if err != nil {
		return nil, err
	}
	r, err := a.R.EvalF64(t)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(l))
	switch a.Op {
	case Add:
		for i := range out {
			out[i] = l[i] + r[i]
		}
	case Sub:
		for i := range out {
			out[i] = l[i] - r[i]
		}
	case Mul:
		for i := range out {
			out[i] = l[i] * r[i]
		}
	case Div:
		for i := range out {
			out[i] = l[i] / r[i] // IEEE semantics: x/0 = ±Inf
		}
	default:
		return nil, fmt.Errorf("expr: unknown arithmetic op %d", a.Op)
	}
	return out, nil
}

// String implements Scalar.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Cmp compares a scalar expression against a constant.
type Cmp struct {
	Op    vec.CmpOp
	Left  Scalar
	Right float64
}

// Points implements Predicate: the requested value is the comparison
// constant on the referenced attribute.
func (c Cmp) Points() []Point {
	if ref, ok := c.Left.(ColRef); ok {
		return []Point{{Attr: ref.Name, Value: c.Right}}
	}
	return nil
}

// guardScalar renders a scalar for the head position of a predicate.
// A bare column reference that spells the cone-search function name
// must be parenthesised: unguarded, "fGetNearbyObjEq > 1" re-parses as
// a malformed fGetNearbyObjEq(...) call instead of a column comparison.
func guardScalar(s Scalar) string {
	if ref, ok := s.(ColRef); ok && strings.EqualFold(ref.Name, "fGetNearbyObjEq") {
		return "(" + ref.Name + ")"
	}
	return s.String()
}

// String implements Predicate.
func (c Cmp) String() string {
	return fmt.Sprintf("%s %s %g", guardScalar(c.Left), c.Op, c.Right)
}

// Between selects lo <= expr <= hi (inclusive, SQL semantics).
type Between struct {
	Expr   Scalar
	Lo, Hi float64
}

// Points implements Predicate: a range request logs its midpoint, the
// centre of the area of interest.
func (b Between) Points() []Point {
	if ref, ok := b.Expr.(ColRef); ok {
		return []Point{{Attr: ref.Name, Value: (b.Lo + b.Hi) / 2}}
	}
	return nil
}

// String implements Predicate.
func (b Between) String() string {
	return fmt.Sprintf("%s BETWEEN %g AND %g", guardScalar(b.Expr), b.Lo, b.Hi)
}

// StrEq selects rows of a VARCHAR column equal to a string constant
// (dictionary-code comparison; no per-row string compare).
type StrEq struct {
	Col   string
	Value string
	Neg   bool // true for <>
}

// Points implements Predicate: string predicates carry no numeric
// interest values.
func (s StrEq) Points() []Point { return nil }

// String implements Predicate.
func (s StrEq) String() string {
	op := "="
	if s.Neg {
		op = "<>"
	}
	return fmt.Sprintf("%s %s '%s'", guardScalar(ColRef{Name: s.Col}), op, s.Value)
}

// And is predicate conjunction.
type And struct{ L, R Predicate }

// Points implements Predicate.
func (a And) Points() []Point { return append(a.L.Points(), a.R.Points()...) }

// String implements Predicate.
func (a And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }

// Or is predicate disjunction.
type Or struct{ L, R Predicate }

// Points implements Predicate.
func (o Or) Points() []Point { return append(o.L.Points(), o.R.Points()...) }

// String implements Predicate.
func (o Or) String() string { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }

// Not is predicate negation.
type Not struct{ P Predicate }

// Points implements Predicate: a negated area is still an area the
// scientist reasoned about, so its points are logged.
func (n Not) Points() []Point { return n.P.Points() }

// String implements Predicate.
func (n Not) String() string { return fmt.Sprintf("NOT (%s)", n.P) }

// TruePred matches all rows; the WHERE-less query.
type TruePred struct{}

// Points implements Predicate.
func (TruePred) Points() []Point { return nil }

// String implements Predicate.
func (TruePred) String() string { return "TRUE" }
