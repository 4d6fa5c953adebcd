package expr

import (
	"fmt"
	"math"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Range-native predicate evaluation (Predicate.FilterRange). The engine
// evaluates each predicate directly over a morsel's contiguous row
// window [lo, hi) with branchless kernels instead of gathering through
// an index vector; together with the scratch pool in package vec this
// makes steady-state filtering allocation free.

// scalarVals resolves a scalar to a shared full-column float64 slice
// without copying when possible: raw DOUBLE column references and
// already-materialised expressions. Anything else (Int64 widening,
// Arith, Const) evaluates — the morsel executor avoids hitting this per
// morsel by rewriting such scalars to Materialized up front.
func scalarVals(t *table.Table, s Scalar) ([]float64, error) {
	switch e := s.(type) {
	case ColRef:
		if data, err := t.Float64(e.Name); err == nil {
			return data, nil
		}
	case Materialized:
		return e.Vals, nil
	}
	return s.EvalF64(t)
}

// FilterRange implements Predicate.
func (c Cmp) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	vals, err := scalarVals(t, c.Left)
	if err != nil {
		return nil, err
	}
	return vec.SelectFloat64Range(vec.GetSel(hi-lo), vals, lo, hi, c.Op, c.Right), nil
}

// FilterRange implements Predicate.
func (b Between) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	vals, err := scalarVals(t, b.Expr)
	if err != nil {
		return nil, err
	}
	return vec.SelectBetweenFloat64Range(vec.GetSel(hi-lo), vals, lo, hi, b.Lo, b.Hi), nil
}

// FilterRange implements Predicate.
func (s StrEq) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
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
			return vec.FillSelRange(vec.GetSel(hi-lo), lo, hi), nil
		}
		return vec.GetSel(0), nil
	}
	return vec.SelectEqInt32Range(vec.GetSel(hi-lo), sc.Data, lo, hi, code, !s.Neg), nil
}

// FilterRange implements Predicate: L scans the window, then R refines
// L's survivors in place through its sel kernel — the same shape as
// And.FilterSel. Each conjunct reads only the rows still alive, so a
// conjunction costs one window scan plus a gather over L's matches,
// not a second full-window scan and an intersection merge.
func (a And) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	ls, err := a.L.FilterRange(t, lo, hi)
	if err != nil || len(ls) == 0 {
		return ls, err
	}
	rs, err := a.R.FilterSel(t, ls)
	vec.PutSel(ls)
	return rs, err
}

// FilterRange implements Predicate.
func (o Or) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	ls, err := o.L.FilterRange(t, lo, hi)
	if err != nil {
		return nil, err
	}
	rs, err := o.R.FilterRange(t, lo, hi)
	if err != nil {
		vec.PutSel(ls)
		return nil, err
	}
	out := vec.OrInto(vec.GetSel(len(ls)+len(rs)), ls, rs)
	vec.PutSel(ls)
	vec.PutSel(rs)
	return out, nil
}

// FilterRange implements Predicate: the complement of the inner
// selection against the window itself, never the full table.
func (n Not) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	ps, err := n.P.FilterRange(t, lo, hi)
	if err != nil {
		return nil, err
	}
	out := vec.DiffRangeInto(vec.GetSel(hi-lo), lo, hi, ps)
	vec.PutSel(ps)
	return out, nil
}

// FilterRange implements Predicate.
func (TruePred) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	return vec.FillSelRange(vec.GetSel(hi-lo), lo, hi), nil
}

// --- Zone-map bounds --------------------------------------------------

// Bound is a necessary per-attribute interval: a row can satisfy the
// reporting predicate only if the attribute's value lies in [Lo, Hi]
// (closed; unbounded sides are ±Inf). Bounds are conservative — they
// may admit rows the predicate rejects, never the reverse — which is
// exactly what zone-map pruning needs: a storage granule whose min/max
// interval is disjoint from a bound cannot contain a match.
type Bound struct {
	Attr   string
	Lo, Hi float64
}

// Bounder is the optional Predicate interface reporting necessary
// column bounds (the zone-map analogue of Points). All returned bounds
// hold conjunctively for every matching row.
type Bounder interface {
	Bounds() []Bound
}

// BoundsOf returns pred's necessary column bounds, or nil when the
// predicate shape supports none.
func BoundsOf(p Predicate) []Bound {
	if b, ok := p.(Bounder); ok {
		return b.Bounds()
	}
	return nil
}

// Box is a necessary region of a predicate over one or two columns: a
// row can satisfy the predicate only if its Attr value lies in [Lo, Hi]
// and, when Col is set, its Col value v passes the offset test
// |v − Center| <= Near || |v − Center| >= Far (0 <= Near <= Far),
// computed as written. A one-column box is a Bound. A cone's box is its
// kernel's pass-1 box: the declination band by the right-ascension
// test, Near its half-width and Far 360 − Near across the 0/360 wrap.
type Box struct {
	Bound
	Col               string
	Center, Near, Far float64
}

// BoxesOf returns pred's necessary boxes: the bounds of BoundsOf, with a
// cone's declination band replaced by its two-column box when the cone
// has one. Zone maps, which prune by one column, take BoundsOf; a
// layer's value index (impression.View.Narrow) takes the boxes.
func BoxesOf(p Predicate) []Box {
	switch p := p.(type) {
	case Cone:
		if b, ok := p.box(); ok {
			return []Box{b}
		}
	case And:
		return append(BoxesOf(p.L), BoxesOf(p.R)...)
	}
	var out []Box
	for _, b := range BoundsOf(p) {
		out = append(out, Box{Bound: b})
	}
	return out
}

// Bounds implements Bounder: the comparison constant bounds the column
// from one side (both for equality). NOT-EQUAL excludes a point, which
// bounds nothing.
func (c Cmp) Bounds() []Bound {
	ref, ok := c.Left.(ColRef)
	if !ok {
		return nil
	}
	switch c.Op {
	case vec.Eq:
		return []Bound{{Attr: ref.Name, Lo: c.Right, Hi: c.Right}}
	case vec.Lt, vec.Le:
		return []Bound{{Attr: ref.Name, Lo: math.Inf(-1), Hi: c.Right}}
	case vec.Gt, vec.Ge:
		return []Bound{{Attr: ref.Name, Lo: c.Right, Hi: math.Inf(1)}}
	}
	return nil
}

// Bounds implements Bounder.
func (b Between) Bounds() []Bound {
	ref, ok := b.Expr.(ColRef)
	if !ok {
		return nil
	}
	return []Bound{{Attr: ref.Name, Lo: b.Lo, Hi: b.Hi}}
}

// Bounds implements Bounder: a conjunction's matches satisfy both
// sides' bounds.
func (a And) Bounds() []Bound {
	return append(BoundsOf(a.L), BoundsOf(a.R)...)
}

// Bounds implements Bounder: a disjunction's matches satisfy L or R, so
// only the interval hull of bounds present on BOTH sides is necessary.
func (o Or) Bounds() []Bound {
	lb, rb := BoundsOf(o.L), BoundsOf(o.R)
	var out []Bound
	for _, l := range lb {
		for _, r := range rb {
			if l.Attr != r.Attr {
				continue
			}
			out = append(out, Bound{
				Attr: l.Attr,
				Lo:   math.Min(l.Lo, r.Lo),
				Hi:   math.Max(l.Hi, r.Hi),
			})
		}
	}
	return out
}
