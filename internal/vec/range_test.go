package vec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// selEq treats nil and empty selections as equal.
func selEq(a, b Sel) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestSelectFloat64RangeMatchesSelGather cross-checks every operator of
// the range kernel against the row-at-a-time reference over random
// windows.
func TestSelectFloat64RangeMatchesSelGather(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = rng.Float64()
	}
	data[17] = math.NaN()
	data[512] = 0.5
	for _, op := range []CmpOp{Eq, Ne, Lt, Le, Gt, Ge} {
		for trial := 0; trial < 50; trial++ {
			lo := rng.Intn(len(data) + 1)
			hi := lo + rng.Intn(len(data)+1-lo)
			c := rng.Float64()
			if trial%5 == 0 {
				c = 0.5 // exercise exact equality
			}
			want := selectRef(windowRef(lo, hi), func(i int32) bool { return cmpRef(op, data[i], c) })
			got := SelectFloat64Range(nil, data, lo, hi, op, c)
			if !selEq(want, got) {
				t.Fatalf("op %s [%d,%d) c=%g: range %v != gather %v", op, lo, hi, c, got, want)
			}
		}
	}
}

// TestSelectBetweenFloat64Range cross-checks the BETWEEN kernel,
// including inclusive endpoints and NaN rejection.
func TestSelectBetweenFloat64Range(t *testing.T) {
	data := []float64{0, 0.25, 0.5, math.NaN(), 0.75, 1}
	got := SelectBetweenFloat64Range(nil, data, 0, len(data), 0.25, 0.75)
	want := Sel{1, 2, 4}
	if !selEq(want, got) {
		t.Fatalf("between = %v, want %v", got, want)
	}
	if got := SelectBetweenFloat64Range(nil, data, 2, 5, 0.25, 0.75); !selEq(got, Sel{2, 4}) {
		t.Fatalf("windowed between = %v, want [2 4]", got)
	}
}

// TestSelectEqInt32Range cross-checks dictionary-code selection for
// both polarities over windows.
func TestSelectEqInt32Range(t *testing.T) {
	data := []int32{3, 1, 3, 2, 3, 1}
	if got := SelectEqInt32Range(nil, data, 0, len(data), 3, true); !selEq(got, Sel{0, 2, 4}) {
		t.Fatalf("eq = %v", got)
	}
	if got := SelectEqInt32Range(nil, data, 1, 5, 3, false); !selEq(got, Sel{1, 3}) {
		t.Fatalf("ne window = %v", got)
	}
}

// TestRangeKernelsEmptyAndInvertedWindows pins the empty-window and
// inverted-window (hi < lo) contracts.
func TestRangeKernelsEmptyAndInvertedWindows(t *testing.T) {
	data := []float64{1, 2, 3}
	if got := SelectFloat64Range(nil, data, 2, 2, Gt, 0); len(got) != 0 {
		t.Fatalf("empty window selected %v", got)
	}
	if got := SelectFloat64Range(nil, data, 3, 1, Gt, 0); len(got) != 0 {
		t.Fatalf("inverted window selected %v", got)
	}
	if got := FillSelRange(nil, 1, 1); len(got) != 0 {
		t.Fatalf("empty fill window selected %v", got)
	}
}

// TestSetOpsInto cross-checks the into-scratch set operations against
// the reference set operations, including disjoint and nested inputs.
func TestSetOpsInto(t *testing.T) {
	cases := []struct{ a, b Sel }{
		{Sel{}, Sel{}},
		{Sel{1, 3, 5}, Sel{}},
		{Sel{1, 3, 5}, Sel{2, 4, 6}},       // disjoint interleaved
		{Sel{1, 2, 3}, Sel{7, 8, 9}},       // disjoint separated
		{Sel{1, 2, 3, 4}, Sel{2, 3}},       // nested
		{Sel{0, 2, 4, 6}, Sel{0, 2, 4, 6}}, // identical
	}
	for _, c := range cases {
		if got, want := OrInto(nil, c.a, c.b), orRef(c.a, c.b); !selEq(got, want) {
			t.Errorf("OrInto(%v,%v) = %v, want %v", c.a, c.b, got, want)
		}
		if got, want := DiffRangeInto(nil, 0, 10, c.b), diffRef(windowRef(0, 10), c.b); !selEq(got, want) {
			t.Errorf("DiffRangeInto(0,10,%v) = %v, want %v", c.b, got, want)
		}
	}
}

// TestDiffEdgeCases pins DiffInto on empty, full, and disjoint inputs.
func TestDiffEdgeCases(t *testing.T) {
	if got := DiffInto(nil, Sel{}, Sel{1, 2}); len(got) != 0 {
		t.Fatalf("DiffInto(empty, b) = %v", got)
	}
	if got := DiffInto(nil, Sel{1, 2}, Sel{}); !selEq(got, Sel{1, 2}) {
		t.Fatalf("DiffInto(a, empty) = %v", got)
	}
	if got := DiffInto(nil, Sel{1, 2, 3}, Sel{1, 2, 3}); len(got) != 0 {
		t.Fatalf("DiffInto(a, a) = %v", got)
	}
	if got := DiffInto(nil, Sel{1, 3, 5}, Sel{0, 2, 6}); !selEq(got, Sel{1, 3, 5}) {
		t.Fatalf("DiffInto disjoint = %v", got)
	}
}

// TestFillSelRangeEdgeCases pins empty, inverted, and full windows.
func TestFillSelRangeEdgeCases(t *testing.T) {
	if got := FillSelRange(nil, 4, 4); len(got) != 0 {
		t.Fatalf("FillSelRange(4,4) = %v", got)
	}
	if got := FillSelRange(nil, 5, 3); len(got) != 0 {
		t.Fatalf("FillSelRange(5,3) = %v", got)
	}
	if got := FillSelRange(nil, 2, 5); !selEq(got, Sel{2, 3, 4}) {
		t.Fatalf("FillSelRange(2,5) = %v", got)
	}
	if got, want := FillSelRange(nil, 0, 6), NewSelAll(6); !selEq(got, want) {
		t.Fatalf("full range %v != all %v", got, want)
	}
}

// TestSelPoolReuse proves scratch round-trips through the pool and that
// undersized buffers are regrown rather than reused short.
func TestSelPoolReuse(t *testing.T) {
	var p SelPool
	s := p.Get(64)
	if len(s) != 0 || cap(s) < 64 {
		t.Fatalf("Get(64): len=%d cap=%d", len(s), cap(s))
	}
	s = append(s, 1, 2, 3)
	p.Put(s)
	s2 := p.Get(128)
	if len(s2) != 0 || cap(s2) < 128 {
		t.Fatalf("Get(128) after Put: len=%d cap=%d", len(s2), cap(s2))
	}
	PutSel(nil) // must not panic
}

// TestRangeKernelsZeroAlloc asserts the steady-state scan shape — get
// scratch, run a kernel, release — allocates nothing once the pool is
// warm.
func TestRangeKernelsZeroAlloc(t *testing.T) {
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i) / 4096
	}
	// Warm the pool.
	s := GetSel(len(data))
	PutSel(SelectFloat64Range(s, data, 0, len(data), Lt, 0.5))
	allocs := testing.AllocsPerRun(100, func() {
		s := GetSel(len(data))
		s = SelectFloat64Range(s, data, 0, len(data), Lt, 0.5)
		PutSel(s)
	})
	if allocs > 0 {
		t.Fatalf("steady-state range filter allocates %.1f objects/op, want 0", allocs)
	}
}
