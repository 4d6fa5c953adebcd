package expr

import (
	"fmt"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Sel-native predicate evaluation (Predicate.FilterSel). The engine
// evaluates each predicate directly over an explicit sorted position
// vector — an impression's sampled row positions into a base snapshot,
// or a cached selection being refined — instead of gathering the rows
// into a standalone table first; together with the scratch pool in
// package vec this makes steady-state impression filtering allocation
// free.

// FilterSel implements Predicate.
func (c Cmp) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	vals, err := scalarVals(t, c.Left)
	if err != nil {
		return nil, err
	}
	return vec.SelectFloat64Sel(vec.GetSel(len(sel)), vals, sel, c.Op, c.Right), nil
}

// FilterSel implements Predicate.
func (b Between) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	vals, err := scalarVals(t, b.Expr)
	if err != nil {
		return nil, err
	}
	return vec.SelectBetweenFloat64Sel(vec.GetSel(len(sel)), vals, sel, b.Lo, b.Hi), nil
}

// FilterSel implements Predicate.
func (s StrEq) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	col, err := t.Col(s.Col)
	if err != nil {
		return nil, err
	}
	sc, ok := col.(*column.StringCol)
	if !ok {
		return nil, fmt.Errorf("expr: column %q is %s, want VARCHAR", s.Col, col.Type())
	}
	code, present := sc.Code(s.Value)
	if !present {
		if s.Neg {
			return vec.CopyInto(vec.GetSel(len(sel)), sel), nil
		}
		return vec.GetSel(0), nil
	}
	return vec.SelectEqInt32Sel(vec.GetSel(len(sel)), sc.Data, sel, code, !s.Neg), nil
}

// FilterSel implements Predicate: evaluate L over sel, then R over
// L's survivors only.
func (a And) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	ls, err := a.L.FilterSel(t, sel)
	if err != nil || len(ls) == 0 {
		return ls, err
	}
	rs, err := a.R.FilterSel(t, ls)
	vec.PutSel(ls)
	return rs, err
}

// FilterSel implements Predicate.
func (o Or) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	ls, err := o.L.FilterSel(t, sel)
	if err != nil {
		return nil, err
	}
	rs, err := o.R.FilterSel(t, sel)
	if err != nil {
		vec.PutSel(ls)
		return nil, err
	}
	out := vec.OrInto(vec.GetSel(len(ls)+len(rs)), ls, rs)
	vec.PutSel(ls)
	vec.PutSel(rs)
	return out, nil
}

// FilterSel implements Predicate: the complement of the inner
// selection against sel itself, never the full table.
func (n Not) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	ps, err := n.P.FilterSel(t, sel)
	if err != nil {
		return nil, err
	}
	out := vec.DiffInto(vec.GetSel(len(sel)), sel, ps)
	vec.PutSel(ps)
	return out, nil
}

// FilterSel implements Predicate.
func (TruePred) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	return vec.CopyInto(vec.GetSel(len(sel)), sel), nil
}

// EvalScalarSel evaluates s at only the rows listed in sel, returning
// values aligned with sel — the sel-native analogue of Scalar.EvalF64.
// Selection consumers (sample estimators) read a handful of sampled
// rows out of a large base; evaluating the full column first would make
// an Int64 widening or an Arith intermediate cost O(base) per query
// where O(|sel|) suffices. Unknown scalar shapes fall back to a full
// evaluation plus gather.
func EvalScalarSel(t *table.Table, s Scalar, sel vec.Sel) ([]float64, error) {
	switch e := s.(type) {
	case ColRef:
		col, err := t.Col(e.Name)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(sel))
		switch cc := col.(type) {
		case *column.Float64Col:
			for i, p := range sel {
				out[i] = cc.Data[p]
			}
		case *column.Int64Col:
			for i, p := range sel {
				out[i] = float64(cc.Data[p])
			}
		default:
			return nil, fmt.Errorf("expr: column %q has non-numeric type %s", e.Name, col.Type())
		}
		return out, nil
	case Const:
		out := make([]float64, len(sel))
		for i := range out {
			out[i] = e.V
		}
		return out, nil
	case Materialized:
		out := make([]float64, len(sel))
		for i, p := range sel {
			out[i] = e.Vals[p]
		}
		return out, nil
	case Arith:
		l, err := EvalScalarSel(t, e.L, sel)
		if err != nil {
			return nil, err
		}
		r, err := EvalScalarSel(t, e.R, sel)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case Add:
			for i := range l {
				l[i] += r[i]
			}
		case Sub:
			for i := range l {
				l[i] -= r[i]
			}
		case Mul:
			for i := range l {
				l[i] *= r[i]
			}
		case Div:
			for i := range l {
				l[i] /= r[i] // IEEE semantics: x/0 = ±Inf
			}
		default:
			return nil, fmt.Errorf("expr: unknown arithmetic op %d", e.Op)
		}
		return l, nil
	default:
		vals, err := s.EvalF64(t)
		if err != nil {
			return nil, err
		}
		return vec.GatherFloat64(vals, sel), nil
	}
}
