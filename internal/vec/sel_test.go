package vec

import (
	"math"
	"math/rand"
	"testing"
)

// randomSel returns a sorted random subset of [0, n).
func randomSel(rng *rand.Rand, n int, p float64) Sel {
	s := make(Sel, 0, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			s = append(s, int32(i))
		}
	}
	return s
}

// TestSelectSelMatchesSelectRestricted cross-checks every sel kernel
// against the row-at-a-time reference restricted to the same
// selection.
func TestSelectSelMatchesSelectRestricted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 4096
	data := make([]float64, n)
	codes := make([]int32, n)
	for i := range data {
		data[i] = rng.NormFloat64()
		codes[i] = int32(rng.Intn(5))
	}
	data[17] = math.NaN()
	for _, p := range []float64{0, 0.03, 0.5, 1} {
		sel := randomSel(rng, n, p)
		for op := Eq; op <= Ge; op++ {
			got := SelectFloat64Sel(nil, data, sel, op, 0.25)
			want := selectRef(sel, func(i int32) bool { return cmpRef(op, data[i], 0.25) })
			assertSelEqual(t, "SelectFloat64Sel", got, want)
		}
		gotB := SelectBetweenFloat64Sel(nil, data, sel, -0.5, 0.5)
		wantB := selectRef(sel, func(i int32) bool {
			return data[i] >= -0.5 && data[i] <= 0.5
		})
		assertSelEqual(t, "SelectBetweenFloat64Sel", gotB, wantB)
		for _, want := range []bool{true, false} {
			gotE := SelectEqInt32Sel(nil, codes, sel, 2, want)
			w := want
			wantE := selectRef(sel, func(i int32) bool { return (codes[i] == 2) == w })
			assertSelEqual(t, "SelectEqInt32Sel", gotE, wantE)
		}
	}
}

// TestDiffIntoMatchesDiff cross-checks the pooled set difference.
func TestDiffIntoMatchesDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a := randomSel(rng, 512, rng.Float64())
		b := randomSel(rng, 512, rng.Float64())
		got := DiffInto(nil, a, b)
		want := diffRef(a, b)
		assertSelEqual(t, "DiffInto", got, want)
	}
}

// TestCopyInto checks scratch rehoming keeps content and independence.
func TestCopyInto(t *testing.T) {
	src := Sel{3, 5, 9}
	got := CopyInto(nil, src)
	assertSelEqual(t, "CopyInto", got, src)
	got[0] = 42
	if src[0] != 3 {
		t.Fatal("CopyInto aliased its source")
	}
	if empty := CopyInto(nil, nil); len(empty) != 0 {
		t.Fatalf("CopyInto(nil) = %v, want empty", empty)
	}
}

func assertSelEqual(t *testing.T, name string, got, want Sel) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d (got %v want %v)", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %d, want %d", name, i, got[i], want[i])
		}
	}
}
