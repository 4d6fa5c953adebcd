package vec

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Row-at-a-time reference kernels: the oracles the branchless range and
// sel kernels are checked against.

// cmpRef reports v op c.
func cmpRef(op CmpOp, v, c float64) bool {
	switch op {
	case Eq:
		return v == c
	case Ne:
		return v != c
	case Lt:
		return v < c
	case Le:
		return v <= c
	case Gt:
		return v > c
	case Ge:
		return v >= c
	}
	return false
}

// selectRef returns the rows of sel for which keep reports true.
func selectRef(sel Sel, keep func(row int32) bool) Sel {
	out := Sel{}
	for _, i := range sel {
		if keep(i) {
			out = append(out, i)
		}
	}
	return out
}

// windowRef returns the rows [lo, hi).
func windowRef(lo, hi int) Sel {
	out := Sel{}
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

// containsRef reports whether sorted s contains v.
func containsRef(s Sel, v int32) bool {
	i := sort.Search(len(s), func(k int) bool { return s[k] >= v })
	return i < len(s) && s[i] == v
}

func andRef(a, b Sel) Sel  { return selectRef(a, func(v int32) bool { return containsRef(b, v) }) }
func diffRef(a, b Sel) Sel { return selectRef(a, func(v int32) bool { return !containsRef(b, v) }) }

func orRef(a, b Sel) Sel {
	out := append(append(Sel{}, a...), diffRef(b, a)...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestNewSelAll(t *testing.T) {
	s := NewSelAll(4)
	want := Sel{0, 1, 2, 3}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("NewSelAll(4) = %v, want %v", s, want)
	}
}

func TestOr(t *testing.T) {
	a := Sel{0, 2}
	b := Sel{1, 2, 5}
	if got, want := OrInto(nil, a, b), (Sel{0, 1, 2, 5}); !reflect.DeepEqual(got, want) {
		t.Fatalf("OrInto = %v, want %v", got, want)
	}
	if got := OrInto(nil, Sel{}, b); !reflect.DeepEqual(got, b) {
		t.Fatalf("OrInto(empty, b) = %v, want %v", got, b)
	}
}

func TestNot(t *testing.T) {
	if got, want := DiffRangeInto(nil, 0, 5, Sel{1, 3}), (Sel{0, 2, 4}); !reflect.DeepEqual(got, want) {
		t.Fatalf("DiffRangeInto = %v, want %v", got, want)
	}
	if got := DiffRangeInto(nil, 0, 3, Sel{0, 1, 2}); len(got) != 0 {
		t.Fatalf("complement of the full window = %v, want empty", got)
	}
}

func TestDiff(t *testing.T) {
	a := Sel{0, 2, 4, 6, 8}
	b := Sel{2, 6, 7}
	if got, want := DiffInto(nil, a, b), (Sel{0, 4, 8}); !reflect.DeepEqual(got, want) {
		t.Fatalf("DiffInto = %v, want %v", got, want)
	}
	if got := DiffInto(nil, a, Sel{}); !reflect.DeepEqual(got, a) {
		t.Fatalf("DiffInto(a, empty) = %v, want %v", got, a)
	}
	if got := DiffInto(nil, a, a); len(got) != 0 {
		t.Fatalf("DiffInto(a, a) = %v, want empty", got)
	}
	// Against a full window the sel complement is the range complement.
	if got, want := DiffInto(nil, windowRef(0, 9), b), DiffRangeInto(nil, 0, 9, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("DiffInto = %v, DiffRangeInto = %v", got, want)
	}
}

func TestDeMorganProperty(t *testing.T) {
	// not(a and b) == not(a) or not(b) over a fixed window; the
	// conjunction is the sorted-intersection reference, since AND has
	// no set kernel of its own (expr.And refines in place).
	f := func(am, bm uint16) bool {
		const n = 16
		a, b := Sel{}, Sel{}
		for i := int32(0); i < n; i++ {
			if am&(1<<uint(i)) != 0 {
				a = append(a, i)
			}
			if bm&(1<<uint(i)) != 0 {
				b = append(b, i)
			}
		}
		lhs := DiffRangeInto(nil, 0, n, andRef(a, b))
		rhs := OrInto(nil, DiffRangeInto(nil, 0, n, a), DiffRangeInto(nil, 0, n, b))
		return reflect.DeepEqual(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectFloat64(t *testing.T) {
	data := []float64{1, 5, 3, 5, 2}
	cases := []struct {
		op   CmpOp
		c    float64
		want Sel
	}{
		{Eq, 5, Sel{1, 3}},
		{Ne, 5, Sel{0, 2, 4}},
		{Lt, 3, Sel{0, 4}},
		{Le, 3, Sel{0, 2, 4}},
		{Gt, 3, Sel{1, 3}},
		{Ge, 3, Sel{1, 2, 3}},
	}
	for _, c := range cases {
		if got := SelectFloat64Range(nil, data, 0, len(data), c.op, c.c); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SelectFloat64Range(%v, %v) = %v, want %v", c.op, c.c, got, c.want)
		}
		if got := SelectFloat64Sel(nil, data, NewSelAll(len(data)), c.op, c.c); !reflect.DeepEqual(got, c.want) {
			t.Errorf("SelectFloat64Sel(%v, %v) = %v, want %v", c.op, c.c, got, c.want)
		}
	}
}

func TestSelectFloat64WithSel(t *testing.T) {
	data := []float64{1, 5, 3, 5, 2}
	got := SelectFloat64Sel(nil, data, Sel{1, 2, 4}, Ge, 3)
	want := Sel{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSelectRangeFloat64(t *testing.T) {
	// The BETWEEN kernels keep both endpoints, over a window and over a
	// selection.
	data := []float64{0, 1, 2, 3, 4}
	if got, want := SelectBetweenFloat64Range(nil, data, 0, len(data), 1, 3), (Sel{1, 2, 3}); !reflect.DeepEqual(got, want) {
		t.Fatalf("range: got %v, want %v", got, want)
	}
	if got, want := SelectBetweenFloat64Sel(nil, data, Sel{0, 2, 3, 4}, 2, 4), (Sel{2, 3, 4}); !reflect.DeepEqual(got, want) {
		t.Fatalf("with sel: got %v, want %v", got, want)
	}
}

func TestGather(t *testing.T) {
	f := []float64{10, 11, 12, 13}
	if got := GatherFloat64(f, Sel{0, 3}); !reflect.DeepEqual(got, []float64{10, 13}) {
		t.Fatalf("GatherFloat64 = %v", got)
	}
	got := GatherFloat64(f, nil)
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("GatherFloat64 nil sel = %v", got)
	}
	got[0] = -1
	if f[0] == -1 {
		t.Fatal("GatherFloat64 with nil sel must copy, not alias")
	}
	i := []int64{1, 2, 3}
	if got := GatherInt64(i, Sel{2}); !reflect.DeepEqual(got, []int64{3}) {
		t.Fatalf("GatherInt64 = %v", got)
	}
}

func TestSelectResultSorted(t *testing.T) {
	// Every kernel must return sorted selections: the Or merge, the Not
	// complements and And's in-place refinement all rely on it.
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i % 7)
	}
	for _, got := range []Sel{
		SelectFloat64Range(nil, data, 0, len(data), Eq, 3),
		SelectFloat64Sel(nil, data, NewSelAll(len(data)), Eq, 3),
	} {
		if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
			t.Fatal("selection not sorted")
		}
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{Eq: "=", Ne: "<>", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, s := range ops {
		if op.String() != s {
			t.Fatalf("op %d String = %q, want %q", op, op.String(), s)
		}
	}
}
