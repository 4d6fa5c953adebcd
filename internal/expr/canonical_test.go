package expr

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

func canonTable(t *testing.T, n int, seed int64) *table.Table {
	t.Helper()
	tb := table.MustNew("ct", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "y", Type: column.Float64},
		{Name: "s", Type: column.String},
	})
	rng := rand.New(rand.NewSource(seed))
	words := []string{"a", "b", "c"}
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*10, rng.Float64()*20-10
		switch i % 41 {
		case 5:
			x = math.NaN()
		case 17:
			y = math.Inf(1)
		case 23:
			x, y = math.Inf(-1), math.NaN()
		}
		rows = append(rows, table.Row{x, y, words[rng.Intn(len(words))]})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func mustKey(t *testing.T, p Predicate) string {
	t.Helper()
	k, ok := PredKey(nil, p)
	if !ok {
		t.Fatalf("predicate %s not keyable", p)
	}
	return string(k)
}

func TestCanonicalCommutesAndAssociates(t *testing.T) {
	a := Cmp{Op: vec.Gt, Left: ColRef{Name: "x"}, Right: 2}
	b := StrEq{Col: "s", Value: "a"}
	c := Cone{RaCol: "x", DecCol: "y", Ra0: 5, Dec0: 0, Radius: 1}
	perms := []Predicate{
		And{L: And{L: a, R: b}, R: c},
		And{L: a, R: And{L: b, R: c}},
		And{L: c, R: And{L: b, R: a}},
		And{L: And{L: c, R: a}, R: b},
	}
	want := mustKey(t, Canonical(perms[0]))
	for i, p := range perms[1:] {
		if got := mustKey(t, Canonical(p)); got != want {
			t.Fatalf("permutation %d keys differently", i+1)
		}
	}
	// OR permutations normalise too.
	o1 := mustKey(t, Canonical(Or{L: a, R: Or{L: b, R: c}}))
	o2 := mustKey(t, Canonical(Or{L: Or{L: c, R: b}, R: a}))
	if o1 != o2 {
		t.Fatal("OR permutations key differently")
	}
	// AND and OR of the same operands must NOT collide.
	if mustKey(t, Canonical(And{L: a, R: b})) == mustKey(t, Canonical(Or{L: a, R: b})) {
		t.Fatal("AND and OR keys collide")
	}
}

func TestCanonicalMergesIntervals(t *testing.T) {
	x := ColRef{Name: "x"}
	p := And{
		L: Cmp{Op: vec.Ge, Left: x, Right: 2},
		R: And{
			L: Cmp{Op: vec.Le, Left: x, Right: 5},
			R: Cmp{Op: vec.Le, Left: x, Right: 9},
		},
	}
	got := Canonical(p)
	want := Between{Expr: x, Lo: 2, Hi: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged form = %#v, want %#v", got, want)
	}
	// Strict bounds survive as Cmp, tightest-and-strictest wins.
	q := And{
		L: Cmp{Op: vec.Gt, Left: x, Right: 2},
		R: Cmp{Op: vec.Ge, Left: x, Right: 2},
	}
	if got := Canonical(q); !reflect.DeepEqual(got, Cmp{Op: vec.Gt, Left: x, Right: 2}) {
		t.Fatalf("strict tie-break = %#v", got)
	}
	// Nested Between intersects with loose bounds.
	r := And{
		L: Between{Expr: x, Lo: 1, Hi: 8},
		R: Between{Expr: x, Lo: 3, Hi: 9},
	}
	if got := Canonical(r); !reflect.DeepEqual(got, Between{Expr: x, Lo: 3, Hi: 8}) {
		t.Fatalf("between intersection = %#v", got)
	}
	// NaN constants refuse to merge (comparison semantics are sticky).
	nan := And{
		L: Cmp{Op: vec.Ge, Left: x, Right: math.NaN()},
		R: Cmp{Op: vec.Le, Left: x, Right: 5},
	}
	if _, isBetween := Canonical(nan).(Between); isBetween {
		t.Fatal("NaN bound merged into BETWEEN")
	}
}

func TestCanonicalSimplifications(t *testing.T) {
	a := Cmp{Op: vec.Lt, Left: ColRef{Name: "x"}, Right: 3}
	if got := Canonical(And{L: a, R: TruePred{}}); !reflect.DeepEqual(got, a) {
		t.Fatalf("TRUE conjunct survived: %#v", got)
	}
	if got := Canonical(Or{L: a, R: TruePred{}}); !reflect.DeepEqual(got, TruePred{}) {
		t.Fatalf("TRUE did not absorb OR: %#v", got)
	}
	if got := Canonical(Not{P: Not{P: a}}); !reflect.DeepEqual(got, a) {
		t.Fatalf("double negation survived: %#v", got)
	}
	if got := Canonical(And{L: a, R: a}); !reflect.DeepEqual(got, a) {
		t.Fatalf("duplicate conjunct survived: %#v", got)
	}
	if got := Canonical(nil); !reflect.DeepEqual(got, TruePred{}) {
		t.Fatalf("nil did not canonicalise to TRUE: %#v", got)
	}
}

// opaquePred is an unkeyable user-defined predicate shape.
type opaquePred struct{ TruePred }

func TestCanonicalLeavesUnkeyableUntouched(t *testing.T) {
	p := And{L: opaquePred{}, R: Cmp{Op: vec.Lt, Left: ColRef{Name: "x"}, Right: 3}}
	if got := Canonical(p); !reflect.DeepEqual(got, p) {
		t.Fatalf("unkeyable predicate rewritten: %#v", got)
	}
	if _, ok := PredKey(nil, p); ok {
		t.Fatal("opaque predicate claimed keyable")
	}
	if _, ok := PredKey(nil, Cmp{Op: vec.Lt, Left: Materialized{Desc: "m"}, Right: 1}); ok {
		t.Fatal("Materialized scalar claimed keyable")
	}
}

func TestImplies(t *testing.T) {
	x := ColRef{Name: "x"}
	y := ColRef{Name: "y"}
	cases := []struct {
		p, q Predicate
		want bool
	}{
		{Between{Expr: x, Lo: 2, Hi: 3}, Between{Expr: x, Lo: 0, Hi: 10}, true},
		{Between{Expr: x, Lo: 2, Hi: 3}, Between{Expr: y, Lo: 0, Hi: 10}, false},
		{Between{Expr: x, Lo: 0, Hi: 10}, Between{Expr: x, Lo: 2, Hi: 3}, false},
		{Cmp{Op: vec.Lt, Left: x, Right: 5}, Cmp{Op: vec.Le, Left: x, Right: 5}, true},
		{Cmp{Op: vec.Le, Left: x, Right: 5}, Cmp{Op: vec.Lt, Left: x, Right: 5}, false},
		{Cmp{Op: vec.Gt, Left: x, Right: 3}, Cmp{Op: vec.Ge, Left: x, Right: 3}, true},
		{Cmp{Op: vec.Eq, Left: x, Right: 5}, Between{Expr: x, Lo: 0, Hi: 10}, true},
		{Cmp{Op: vec.Lt, Left: x, Right: 5}, Between{Expr: x, Lo: 0, Hi: 10}, false}, // no lower bound
		{StrEq{Col: "s", Value: "a"}, StrEq{Col: "s", Value: "a"}, false},            // non-interval: conservative no
	}
	for i, c := range cases {
		if got := Implies(c.p, c.q); got != c.want {
			t.Errorf("case %d: Implies(%s, %s) = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

// randPred builds random keyable predicates over x (in [0,10]) and y
// (in [-10,10]) with depth-bounded combinators.
func randPred(rng *rand.Rand, depth int) Predicate {
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			return And{L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
		case 1:
			return Or{L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
		default:
			return Not{P: randPred(rng, depth-1)}
		}
	}
	ops := []vec.CmpOp{vec.Eq, vec.Ne, vec.Lt, vec.Le, vec.Gt, vec.Ge}
	switch rng.Intn(4) {
	case 0:
		return Cmp{Op: ops[rng.Intn(len(ops))], Left: ColRef{Name: "x"}, Right: rng.Float64() * 10}
	case 1:
		lo := rng.Float64()*20 - 10
		return Between{Expr: ColRef{Name: "y"}, Lo: lo, Hi: lo + rng.Float64()*10}
	case 2:
		return StrEq{Col: "s", Value: []string{"a", "b", "zz"}[rng.Intn(3)], Neg: rng.Intn(2) == 0}
	default:
		return Cmp{Op: ops[rng.Intn(len(ops))], Left: ColRef{Name: "y"}, Right: rng.Float64()*20 - 10}
	}
}

// TestCanonicalFixedPointAndSemantics is the canonicalisation half of
// the recycler property suite: for random predicates, Canonical is a
// fixed point, both kernels of p and of its canonical form match the
// row-at-a-time reference, and the reference accepts the same rows for
// both forms.
func TestCanonicalFixedPointAndSemantics(t *testing.T) {
	tb := canonTable(t, 500, 42)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 300; iter++ {
		p := randPred(rng, 3)
		c := Canonical(p)
		cc := Canonical(c)
		if !reflect.DeepEqual(c, cc) {
			t.Fatalf("iter %d: not a fixed point:\n  p  = %s\n  c  = %s\n  cc = %s", iter, p, c, cc)
		}
		kc := mustKey(t, c)
		if kcc := mustKey(t, cc); kc != kcc {
			t.Fatalf("iter %d: fixed-point keys differ", iter)
		}
		lo, hi := randWindow(rng, tb.Len())
		sel := randPositions(rng, tb.Len())
		checkKernels(t, tb, p, lo, hi, sel)
		checkKernels(t, tb, c, lo, hi, sel)
		all := windowSel(0, tb.Len())
		if w, g := refFilter(p, tb, all), refFilter(c, tb, all); !slices.Equal(w, g) {
			t.Fatalf("iter %d: %s selects %d rows, canonical %s selects %d", iter, p, len(w), c, len(g))
		}
	}
}
