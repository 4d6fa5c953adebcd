package expr

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"

	"sciborq/internal/vec"
)

// Predicate canonicalisation and key encoding for the recycler: two
// predicates that are syntactic permutations of each other ("a AND b"
// vs "b AND a", redundant bounds, nested conjunctions) normalise to one
// form and therefore to one cache key. The key is a compact binary
// encoding built with append-only writes — no fmt on the query hot
// path.
//
// Canonical preserves predicate semantics exactly: conjunction and
// disjunction are set intersection/union over sorted selection vectors,
// so reordering operands never changes the (sorted) result, and
// interval merging only replaces conjuncts by their algebraic
// intersection. NaN never satisfies any merged bound on either side of
// the rewrite (IEEE comparisons with NaN are false, and SQL BETWEEN is
// two such comparisons).

// Canonical returns the normal form of p:
//
//   - And/Or operands are flattened, deduplicated, and sorted by their
//     binary key, so commuted and re-associated predicates normalise to
//     one tree;
//   - conjoined interval bounds on the same column (Cmp Lt/Le/Gt/Ge,
//     Between) merge into their intersection — "x >= 2 AND x <= 5 AND
//     x <= 9" becomes "x BETWEEN 2 AND 5";
//   - TRUE conjuncts drop, TRUE absorbs disjunctions, and double
//     negation cancels.
//
// Canonical is a fixed point (Canonical(Canonical(p)) == Canonical(p))
// and semantics-preserving: FilterRange and FilterSel over the canonical
// form return the same selections as over p. Predicates containing shapes this package
// cannot key (user-defined types, Materialized scalars) are returned
// unchanged.
func Canonical(p Predicate) Predicate {
	c, ok := canon(p)
	if !ok {
		return p
	}
	return c
}

// PredKey appends the canonical binary encoding of p to buf, returning
// the extended buffer and whether p is keyable. Callers canonicalise
// first: PredKey encodes the tree it is given. Unknown predicate or
// scalar shapes report ok=false (the recycler bypasses caching for
// them).
func PredKey(buf []byte, p Predicate) ([]byte, bool) {
	return appendPredKey(buf, p)
}

// SplitAnd returns the flattened conjunct list of p — the operands of
// its (nested) top-level AND chain, or [p] when p is not a conjunction.
// On a canonical predicate the conjuncts come out in canonical (key)
// order.
func SplitAnd(p Predicate) []Predicate {
	var out []Predicate
	var walk func(Predicate)
	walk = func(q Predicate) {
		if a, ok := q.(And); ok {
			walk(a.L)
			walk(a.R)
			return
		}
		out = append(out, q)
	}
	walk(p)
	return out
}

// JoinAnd folds conjuncts back into a left-associated AND chain; the
// inverse of SplitAnd for non-empty input, TRUE for empty.
func JoinAnd(conjuncts []Predicate) Predicate {
	if len(conjuncts) == 0 {
		return TruePred{}
	}
	acc := conjuncts[0]
	for _, c := range conjuncts[1:] {
		acc = And{L: acc, R: c}
	}
	return acc
}

// Implies conservatively reports whether p ⇒ q holds for every row:
// true only for single-column interval conjuncts (Cmp with an ordering
// operator or Eq, Between) over the same column where p's interval is
// contained in q's. False negatives are fine — callers use it to find
// reusable cached supersets, not to prove theorems.
func Implies(p, q Predicate) bool {
	pc, pi, ok := asInterval(p)
	if !ok {
		return false
	}
	qc, qi, ok := asInterval(q)
	if !ok || pc != qc {
		return false
	}
	// Lower side: q unbounded, or p at least as tight.
	if qi.hasLo {
		if !pi.hasLo {
			return false
		}
		if pi.lo < qi.lo || (pi.lo == qi.lo && qi.loStrict && !pi.loStrict) {
			return false
		}
	}
	if qi.hasHi {
		if !pi.hasHi {
			return false
		}
		if pi.hi > qi.hi || (pi.hi == qi.hi && qi.hiStrict && !pi.hiStrict) {
			return false
		}
	}
	return true
}

// interval is a one-column bound: lo/hi sides independently present and
// independently strict. Constants are never NaN (asInterval rejects
// those).
type interval struct {
	hasLo, hasHi       bool
	lo, hi             float64
	loStrict, hiStrict bool
}

// asInterval views p as a bound over a raw column reference, when it is
// one. Eq becomes the closed point interval; Ne bounds nothing.
func asInterval(p Predicate) (col string, iv interval, ok bool) {
	switch c := p.(type) {
	case Cmp:
		ref, isRef := c.Left.(ColRef)
		if !isRef || math.IsNaN(c.Right) {
			return "", interval{}, false
		}
		switch c.Op {
		case vec.Lt:
			return ref.Name, interval{hasHi: true, hi: c.Right, hiStrict: true}, true
		case vec.Le:
			return ref.Name, interval{hasHi: true, hi: c.Right}, true
		case vec.Gt:
			return ref.Name, interval{hasLo: true, lo: c.Right, loStrict: true}, true
		case vec.Ge:
			return ref.Name, interval{hasLo: true, lo: c.Right}, true
		case vec.Eq:
			return ref.Name, interval{hasLo: true, lo: c.Right, hasHi: true, hi: c.Right}, true
		}
		return "", interval{}, false
	case Between:
		ref, isRef := c.Expr.(ColRef)
		if !isRef || math.IsNaN(c.Lo) || math.IsNaN(c.Hi) {
			return "", interval{}, false
		}
		return ref.Name, interval{hasLo: true, lo: c.Lo, hasHi: true, hi: c.Hi}, true
	}
	return "", interval{}, false
}

// mergeable reports whether p participates in conjunction interval
// merging: an ordering bound (not Eq — point predicates stay their own
// conjunct so "x = 5" keys distinctly from "x BETWEEN 5 AND 5").
func mergeable(p Predicate) (string, interval, bool) {
	if c, isCmp := p.(Cmp); isCmp && c.Op == vec.Eq {
		return "", interval{}, false
	}
	return asInterval(p)
}

// canon is Canonical's recursive worker; ok=false marks a subtree with
// unkeyable shapes, which the caller propagates so the whole predicate
// is left untouched (a partially canonical tree would not be a fixed
// point).
func canon(p Predicate) (Predicate, bool) {
	switch c := p.(type) {
	case nil:
		return TruePred{}, true
	case And:
		return canonAnd(c)
	case Or:
		return canonOr(c)
	case Not:
		inner, ok := canon(c.P)
		if !ok {
			return nil, false
		}
		if n, isNot := inner.(Not); isNot {
			return n.P, true
		}
		return Not{P: inner}, true
	case Cmp:
		if !scalarKeyable(c.Left) {
			return nil, false
		}
		return c, true
	case Between:
		if !scalarKeyable(c.Expr) {
			return nil, false
		}
		return c, true
	case StrEq, Cone, TruePred:
		return p, true
	default:
		return nil, false
	}
}

// keyed pairs a canonical conjunct/disjunct with its binary key for
// sorting and deduplication.
type keyed struct {
	p   Predicate
	key []byte
}

func sortDedupe(ks []keyed) []keyed {
	sort.Slice(ks, func(i, j int) bool { return bytes.Compare(ks[i].key, ks[j].key) < 0 })
	out := ks[:0]
	for i, k := range ks {
		if i > 0 && bytes.Equal(k.key, ks[i-1].key) {
			continue
		}
		out = append(out, k)
	}
	return out
}

// canonAnd flattens a conjunction, merges per-column interval bounds,
// then sorts and deduplicates the surviving conjuncts by key.
func canonAnd(a And) (Predicate, bool) {
	var flat []Predicate
	var gather func(Predicate) bool
	gather = func(q Predicate) bool {
		cq, ok := canon(q)
		if !ok {
			return false
		}
		if inner, isAnd := cq.(And); isAnd {
			// canon of a nested And returns a flattened chain; split it
			// rather than re-recursing through canon.
			flat = append(flat, SplitAnd(inner)...)
			return true
		}
		if _, isTrue := cq.(TruePred); isTrue {
			return true
		}
		flat = append(flat, cq)
		return true
	}
	if !gather(a.L) || !gather(a.R) {
		return nil, false
	}

	// Merge interval bounds per column; everything else passes through.
	bounds := make(map[string]interval)
	var order []string // first-seen column order, for deterministic emit before sorting
	rest := flat[:0]
	for _, c := range flat {
		col, iv, ok := mergeable(c)
		if !ok {
			rest = append(rest, c)
			continue
		}
		if _, seen := bounds[col]; !seen {
			order = append(order, col)
		}
		bounds[col] = tighten(bounds[col], iv)
	}
	conjuncts := append([]Predicate(nil), rest...)
	for _, col := range order {
		conjuncts = append(conjuncts, emitBounds(col, bounds[col])...)
	}

	ks := make([]keyed, 0, len(conjuncts))
	for _, c := range conjuncts {
		key, ok := appendPredKey(nil, c)
		if !ok {
			return nil, false
		}
		ks = append(ks, keyed{p: c, key: key})
	}
	ks = sortDedupe(ks)
	switch len(ks) {
	case 0:
		return TruePred{}, true
	case 1:
		return ks[0].p, true
	}
	acc := ks[0].p
	for _, k := range ks[1:] {
		acc = And{L: acc, R: k.p}
	}
	return acc, true
}

// tighten intersects two interval bounds: the higher lower bound and
// the lower upper bound win; on equal constants the strict side wins.
func tighten(a, b interval) interval {
	if b.hasLo && (!a.hasLo || b.lo > a.lo || (b.lo == a.lo && b.loStrict)) {
		a.hasLo, a.lo, a.loStrict = true, b.lo, b.loStrict
	}
	if b.hasHi && (!a.hasHi || b.hi < a.hi || (b.hi == a.hi && b.hiStrict)) {
		a.hasHi, a.hi, a.hiStrict = true, b.hi, b.hiStrict
	}
	return a
}

// emitBounds renders a merged interval back into predicate conjuncts:
// a closed two-sided interval is BETWEEN, anything else one Cmp per
// present side. (An empty interval — lo > hi — stays as emitted: both
// forms match no row, so semantics hold without a dedicated FALSE.)
func emitBounds(col string, iv interval) []Predicate {
	ref := ColRef{Name: col}
	if iv.hasLo && iv.hasHi && !iv.loStrict && !iv.hiStrict {
		return []Predicate{Between{Expr: ref, Lo: iv.lo, Hi: iv.hi}}
	}
	var out []Predicate
	if iv.hasLo {
		op := vec.Ge
		if iv.loStrict {
			op = vec.Gt
		}
		out = append(out, Cmp{Op: op, Left: ref, Right: iv.lo})
	}
	if iv.hasHi {
		op := vec.Le
		if iv.hiStrict {
			op = vec.Lt
		}
		out = append(out, Cmp{Op: op, Left: ref, Right: iv.hi})
	}
	return out
}

// canonOr flattens a disjunction, lets TRUE absorb it, and sorts and
// deduplicates the operands by key.
func canonOr(o Or) (Predicate, bool) {
	var flat []Predicate
	absorbed := false
	var gather func(Predicate) bool
	gather = func(q Predicate) bool {
		cq, ok := canon(q)
		if !ok {
			return false
		}
		if inner, isOr := cq.(Or); isOr {
			return gatherFlat(inner, &flat, &absorbed)
		}
		if _, isTrue := cq.(TruePred); isTrue {
			absorbed = true
			return true
		}
		flat = append(flat, cq)
		return true
	}
	if !gather(o.L) || !gather(o.R) {
		return nil, false
	}
	if absorbed {
		return TruePred{}, true
	}
	ks := make([]keyed, 0, len(flat))
	for _, c := range flat {
		key, ok := appendPredKey(nil, c)
		if !ok {
			return nil, false
		}
		ks = append(ks, keyed{p: c, key: key})
	}
	ks = sortDedupe(ks)
	switch len(ks) {
	case 0:
		return TruePred{}, true
	case 1:
		return ks[0].p, true
	}
	acc := ks[0].p
	for _, k := range ks[1:] {
		acc = Or{L: acc, R: k.p}
	}
	return acc, true
}

// gatherFlat splits an already-canonical nested Or chain into flat.
func gatherFlat(o Or, flat *[]Predicate, absorbed *bool) bool {
	var walk func(Predicate) bool
	walk = func(q Predicate) bool {
		if inner, isOr := q.(Or); isOr {
			return walk(inner.L) && walk(inner.R)
		}
		if _, isTrue := q.(TruePred); isTrue {
			*absorbed = true
			return true
		}
		*flat = append(*flat, q)
		return true
	}
	return walk(o.L) && walk(o.R)
}

// --- binary key encoding ----------------------------------------------

// Key tags. Disjoint from each other and from scalar tags; every
// variable-length field is either length-delimited by a 0 terminator
// (column names, string constants — the column layer never stores NUL
// in identifiers or dictionary words that could otherwise collide) or
// fixed width (float64 bits).
const (
	kTrue    = 'T'
	kCmp     = 'C'
	kBetween = 'B'
	kStrEq   = 'S'
	kCone    = 'G'
	kAnd     = '&'
	kOr      = '|'
	kNot     = '!'
	kEnd     = ')'
	kColRef  = 'c'
	kConst   = 'k'
	kArith   = 'a'
)

func appendF64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendStr(buf []byte, s string) []byte {
	buf = append(buf, s...)
	return append(buf, 0)
}

func appendPredKey(buf []byte, p Predicate) ([]byte, bool) {
	switch c := p.(type) {
	case nil:
		return append(buf, kTrue), true
	case TruePred:
		return append(buf, kTrue), true
	case Cmp:
		buf = append(buf, kCmp, byte(c.Op))
		buf, ok := appendScalarKey(buf, c.Left)
		if !ok {
			return nil, false
		}
		return appendF64(buf, c.Right), true
	case Between:
		buf = append(buf, kBetween)
		buf, ok := appendScalarKey(buf, c.Expr)
		if !ok {
			return nil, false
		}
		return appendF64(appendF64(buf, c.Lo), c.Hi), true
	case StrEq:
		neg := byte(0)
		if c.Neg {
			neg = 1
		}
		buf = append(buf, kStrEq, neg)
		return appendStr(appendStr(buf, c.Col), c.Value), true
	case Cone:
		buf = append(buf, kCone)
		buf = appendStr(appendStr(buf, c.RaCol), c.DecCol)
		return appendF64(appendF64(appendF64(buf, c.Ra0), c.Dec0), c.Radius), true
	case And:
		buf = append(buf, kAnd)
		var ok bool
		if buf, ok = appendPredKey(buf, c.L); !ok {
			return nil, false
		}
		if buf, ok = appendPredKey(buf, c.R); !ok {
			return nil, false
		}
		return append(buf, kEnd), true
	case Or:
		buf = append(buf, kOr)
		var ok bool
		if buf, ok = appendPredKey(buf, c.L); !ok {
			return nil, false
		}
		if buf, ok = appendPredKey(buf, c.R); !ok {
			return nil, false
		}
		return append(buf, kEnd), true
	case Not:
		buf = append(buf, kNot)
		return appendPredKey(buf, c.P)
	default:
		return nil, false
	}
}

func appendScalarKey(buf []byte, s Scalar) ([]byte, bool) {
	switch e := s.(type) {
	case ColRef:
		return appendStr(append(buf, kColRef), e.Name), true
	case Const:
		return appendF64(append(buf, kConst), e.V), true
	case Arith:
		buf = append(buf, kArith, byte(e.Op))
		buf, ok := appendScalarKey(buf, e.L)
		if !ok {
			return nil, false
		}
		buf, ok = appendScalarKey(buf, e.R)
		if !ok {
			return nil, false
		}
		return append(buf, kEnd), true
	default:
		// Materialized carries whole-column state; user-defined scalars
		// are opaque. Neither can be keyed by value.
		return nil, false
	}
}

func scalarKeyable(s Scalar) bool {
	_, ok := appendScalarKey(nil, s)
	return ok
}
