package stats

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// refMoments is the exact reference for a finite input: the mean from a
// 512-bit sum, the unbiased variance as a second pass over deviations
// from that mean, both rounded to float64 only at the end. A non-finite
// input follows IEEE arithmetic instead: the mean is what the float64
// sum gives (±Inf, or NaN with a NaN or with both infinities), and the
// variance of two or more values is NaN.
func refMoments(vs []float64) (mean, variance float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	finite := true
	naive := 0.0
	for _, v := range vs {
		naive += v
		finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if !finite {
		if len(vs) < 2 {
			return naive, 0
		}
		return naive, math.NaN()
	}
	const prec = 512
	sum := new(big.Float).SetPrec(prec)
	for _, v := range vs {
		sum.Add(sum, big.NewFloat(v))
	}
	n := new(big.Float).SetPrec(prec).SetInt64(int64(len(vs)))
	mu := new(big.Float).SetPrec(prec).Quo(sum, n)
	mean, _ = mu.Float64()
	if len(vs) < 2 {
		return mean, 0
	}
	ss := new(big.Float).SetPrec(prec)
	d := new(big.Float).SetPrec(prec)
	for _, v := range vs {
		d.Sub(big.NewFloat(v), mu)
		ss.Add(ss, d.Mul(d, d))
	}
	ss.Quo(ss, new(big.Float).SetPrec(prec).SetInt64(int64(len(vs)-1)))
	variance, _ = ss.Float64()
	return mean, variance
}

// within reports whether got matches want to relative tolerance rel:
// NaN matches NaN, infinities and zero match only exactly.
func within(got, want, rel float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	if got == want {
		return true
	}
	return !math.IsInf(want, 0) && math.Abs(got-want) <= rel*math.Abs(want)
}

// momentsInputs are the precision cases: data far from zero with a tiny
// spread (where unshifted power sums cancel away), constant runs, a
// single value, infinities and NaN.
func momentsInputs() map[string][]float64 {
	rng := rand.New(rand.NewSource(2011))
	offset := make([]float64, 20_000)
	for i := range offset {
		offset[i] = 1e9 + rng.Float64()*1e-3
	}
	negOffset := make([]float64, 5_000)
	for i := range negOffset {
		negOffset[i] = -3e8 - rng.Float64()*2e-3
	}
	runs := []float64{}
	for _, c := range []float64{4.25, 4.25 + 1e-6, -7, 1e9 + 0.5} {
		for i := 0; i < 500; i++ {
			runs = append(runs, c)
		}
	}
	constant := make([]float64, 3000)
	for i := range constant {
		constant[i] = 1e9 + 0.125
	}
	inf, nan := math.Inf(1), math.NaN()
	return map[string][]float64{
		"offset1e9-spread1e-3":  offset,
		"offset-3e8-spread2e-3": negOffset,
		"constant-runs":         runs,
		"constant":              constant,
		"single":                {1e9 + 0.001},
		"classic":               {2, 4, 4, 4, 5, 5, 7, 9},
		"+inf-mid":              {1, 2, inf, 3},
		"+inf-first":            {inf, 1, 2},
		"-inf":                  {-1, -inf, 4},
		"both-infs":             {inf, 1, -inf},
		"only-inf":              {inf},
		"nan-mid":               {1, nan, 2},
		"nan-first":             {nan, 1, 2},
	}
}

// checkMoments asserts m against the reference mean and variance of vs:
// mean within 1e-12 and variance within 1e-9 relative, exact count, and
// exact min/max for finite inputs.
func checkMoments(t *testing.T, what string, m Moments, vs []float64, mean, variance float64) {
	t.Helper()
	if m.N() != int64(len(vs)) {
		t.Fatalf("%s: n = %d, want %d", what, m.N(), len(vs))
	}
	if !within(m.Mean(), mean, 1e-12) {
		t.Errorf("%s: mean = %v, reference %v", what, m.Mean(), mean)
	}
	if !within(m.Variance(), variance, 1e-9) {
		t.Errorf("%s: variance = %v, reference %v", what, m.Variance(), variance)
	}
	if !math.IsNaN(mean) && !math.IsInf(mean, 0) && len(vs) > 0 {
		if m.Min() != slices.Min(vs) || m.Max() != slices.Max(vs) {
			t.Errorf("%s: min/max = %v/%v, want %v/%v", what, m.Min(), m.Max(), slices.Min(vs), slices.Max(vs))
		}
	}
}

// TestMomentsPrecisionAgainstExactReference checks every observation
// path — per value, bulk, through a selection — and merges over random
// split points (empty parts included) against the exact reference.
func TestMomentsPrecisionAgainstExactReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, vs := range momentsInputs() {
		mean, variance := refMoments(vs)
		var one, all, sel Moments
		for _, v := range vs {
			one.Observe(v)
		}
		all.ObserveAll(vs)
		positions := make([]int32, len(vs))
		for i := range positions {
			positions[i] = int32(i)
		}
		sel.ObserveSel(vs, positions)
		checkMoments(t, name+"/observe", one, vs, mean, variance)
		checkMoments(t, name+"/all", all, vs, mean, variance)
		checkMoments(t, name+"/sel", sel, vs, mean, variance)

		for trial := 0; trial < 20; trial++ {
			cuts := []int{0, len(vs)}
			for c := rng.Intn(6); c > 0; c-- {
				cuts = append(cuts, rng.Intn(len(vs)+1))
			}
			slices.Sort(cuts) // repeated cuts make empty parts
			var merged Moments
			for i := 1; i < len(cuts); i++ {
				var part Moments
				part.ObserveAll(vs[cuts[i-1]:cuts[i]])
				merged.Merge(part)
			}
			checkMoments(t, name+"/merged", merged, vs, mean, variance)
			// Observing on after a merge continues from the re-centred
			// state.
			mid := cuts[len(cuts)/2]
			var head, next Moments
			head.ObserveAll(vs[:mid/2])
			next.ObserveAll(vs[mid/2 : mid])
			head.Merge(next)
			head.ObserveAll(vs[mid:])
			checkMoments(t, name+"/merge-then-observe", head, vs, mean, variance)
		}
	}
}

// TestMomentsBulkMatchesPerValue pins the bit-identity the engine's
// fold relies on: the bulk and selection paths leave exactly the state
// per-value observation leaves, and ObserveRepeat equals n Observes.
func TestMomentsBulkMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = 1e6 + rng.NormFloat64()
	}
	sel := []int32{}
	for i := range vs {
		if rng.Intn(3) == 0 {
			sel = append(sel, int32(i))
		}
	}
	var one, bulk Moments
	for _, p := range sel {
		one.Observe(vs[p])
	}
	bulk.ObserveSel(vs, sel)
	if one != bulk {
		t.Fatalf("ObserveSel state %+v, per-value state %+v", bulk, one)
	}
	var all Moments
	all.ObserveAll(vs)
	one = Moments{}
	for _, v := range vs {
		one.Observe(v)
	}
	if one != all {
		t.Fatalf("ObserveAll state %+v, per-value state %+v", all, one)
	}
	var rep, ones Moments
	rep.ObserveRepeat(1, 777)
	for i := 0; i < 777; i++ {
		ones.Observe(1)
	}
	if rep != ones {
		t.Fatalf("ObserveRepeat state %+v, per-value state %+v", rep, ones)
	}
	rep.ObserveRepeat(1, 0)
	if rep != ones {
		t.Fatal("ObserveRepeat of zero copies changed the state")
	}
}

// sameBits reports whether two accumulators hold bit-identical state
// (NaN fields included, which == cannot compare).
func sameBits(a, b Moments) bool {
	bits := func(m Moments) [6]uint64 {
		return [6]uint64{uint64(m.n), math.Float64bits(m.k), math.Float64bits(m.s1),
			math.Float64bits(m.s2), math.Float64bits(m.min), math.Float64bits(m.max)}
	}
	return bits(a) == bits(b)
}

// TestObserveGroupedMatchesPerValue pins the grouped fold to per-row
// Observe: over every precision input (NaN, ±Inf and offset 1e9
// included), a random subset of rows spread over seven groups of a
// three-aggregate arena leaves each group's accumulator, and every
// accumulator it must not touch, bit-identical to observing the group's
// rows one at a time.
func TestObserveGroupedMatchesPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const groups, stride, agg = 7, 3, 1
	for name, vs := range momentsInputs() {
		var rows, gids []int32
		for i := range vs {
			if rng.Intn(4) != 0 {
				rows = append(rows, int32(i))
				gids = append(gids, int32(rng.Intn(groups)))
			}
		}
		want := make([]Moments, groups*stride)
		for j, p := range rows {
			want[int(gids[j])*stride+agg].Observe(vs[p])
		}
		got := make([]Moments, groups*stride)
		ObserveGrouped(got[agg:], stride, vs, rows, gids)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: arena slot %d = %+v, per-value %+v", name, i, got[i], want[i])
			}
		}
		// Folding on into non-empty accumulators continues exactly as
		// Observe does.
		for j, p := range rows {
			want[int(gids[j])*stride+agg].Observe(vs[p])
		}
		ObserveGrouped(got[agg:], stride, vs, rows, gids)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s (second fold): arena slot %d = %+v, per-value %+v", name, i, got[i], want[i])
			}
		}
	}
}
