package estimate

import (
	"math"
	"math/rand"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// selEstFixture builds a base table, a sorted random position vector,
// and the equivalent materialised layer with aligned weights.
func selEstFixture(t *testing.T, n int, weighted bool, seed int64) (SelLayer, Layer) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	gs := make([]int64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()*10 + 50
		gs[i] = int64(i % 5)
	}
	base := table.MustNew("base", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "g", Type: column.Int64},
	})
	if err := base.AppendColumns([]column.Column{
		column.NewFloat64From("x", xs),
		column.NewInt64From("g", gs),
	}); err != nil {
		t.Fatal(err)
	}
	var positions vec.Sel
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.25 {
			positions = append(positions, int32(i))
		}
	}
	var weights, pis []float64
	if weighted {
		weights = make([]float64, len(positions))
		pis = make([]float64, len(positions))
		for i := range weights {
			weights[i] = 0.2 + rng.Float64()*5
			pis[i] = 0.05 + rng.Float64()*0.9
		}
	}
	layerTable, err := base.Project("layer", base.Schema().Names(), positions)
	if err != nil {
		t.Fatal(err)
	}
	sl := SelLayer{
		Name: "sel", Base: base, Positions: positions,
		Weights: weights, CountWeights: pis, BaseRows: int64(n),
	}
	l := Layer{
		Name: "mat", Table: layerTable,
		Weights: weights, CountWeights: pis, BaseRows: int64(n),
	}
	return sl, l
}

func allAggsQuery(pred expr.Predicate) engine.Query {
	arg := expr.ColRef{Name: "x"}
	return engine.Query{
		Table: "base",
		Where: pred,
		Aggs: []engine.AggSpec{
			{Func: engine.Count},
			{Func: engine.Sum, Arg: arg, Alias: "s"},
			{Func: engine.Avg, Arg: arg, Alias: "a"},
			{Func: engine.Min, Arg: arg, Alias: "mn"},
			{Func: engine.Max, Arg: arg, Alias: "mx"},
			{Func: engine.StdDev, Arg: arg, Alias: "sd"},
		},
	}
}

// closeEnough compares two floats to a relative tolerance, treating
// equal infinities and NaNs as matching.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func assertEstimatesMatch(t *testing.T, got, want []Estimate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d estimates, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.SampleRows != w.SampleRows {
			t.Errorf("%s: SampleRows %d, want %d", g.Spec.Name(), g.SampleRows, w.SampleRows)
		}
		if !closeEnough(g.Value(), w.Value()) {
			t.Errorf("%s: value %v, want %v", g.Spec.Name(), g.Value(), w.Value())
		}
		if !closeEnough(g.Interval.HalfWidth, w.Interval.HalfWidth) {
			t.Errorf("%s: half-width %v, want %v", g.Spec.Name(), g.Interval.HalfWidth, w.Interval.HalfWidth)
		}
	}
}

// TestAggregateOnSelMatchesMaterialized asserts the selection-native
// estimators agree with the materialised-layer path on every aggregate,
// for uniform and weighted layers, across predicates and parallelism.
func TestAggregateOnSelMatchesMaterialized(t *testing.T) {
	preds := []expr.Predicate{
		nil, // TRUE
		expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 50},
		expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 45, Hi: 55},
		expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "x"}, Right: 1e9}, // empty match
	}
	for _, weighted := range []bool{false, true} {
		sl, l := selEstFixture(t, 20_000, weighted, 41)
		for pi, pred := range preds {
			q := allAggsQuery(pred)
			want, err := AggregateOnOpts(l, q, 0.95, engine.ExecOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := AggregateOnSelOpts(sl, q, 0.95, engine.ExecOptions{Parallelism: workers, MorselRows: 2048})
				if err != nil {
					t.Fatalf("weighted=%t pred %d: %v", weighted, pi, err)
				}
				assertEstimatesMatch(t, got, want)
			}
		}
	}
}

// TestAggregateOnSelDeterministicAcrossWorkers asserts bit-identical
// estimates at workers 1 vs 4 (same code path, deterministic filter).
func TestAggregateOnSelDeterministicAcrossWorkers(t *testing.T) {
	sl, _ := selEstFixture(t, 30_000, true, 43)
	q := allAggsQuery(expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 52})
	a, err := AggregateOnSelOpts(sl, q, 0.99, engine.ExecOptions{Parallelism: 1, MorselRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AggregateOnSelOpts(sl, q, 0.99, engine.ExecOptions{Parallelism: 4, MorselRows: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Value() != b[i].Value() || a[i].Interval.HalfWidth != b[i].Interval.HalfWidth {
			t.Errorf("%s: workers 1 vs 4 differ: %v±%v vs %v±%v", a[i].Spec.Name(),
				a[i].Value(), a[i].Interval.HalfWidth, b[i].Value(), b[i].Interval.HalfWidth)
		}
	}
}

// TestGroupedAggregateOnSelMatchesMaterialized asserts grouped
// selection-native estimates agree with GroupedAggregateOn: same keys,
// same order, same estimates.
func TestGroupedAggregateOnSelMatchesMaterialized(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		sl, l := selEstFixture(t, 15_000, weighted, 47)
		q := engine.Query{
			Table:   "base",
			Where:   expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 53},
			GroupBy: "g",
			Aggs: []engine.AggSpec{
				{Func: engine.Count},
				{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"},
			},
		}
		want, err := GroupedAggregateOn(l, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		got, err := GroupedAggregateOnSel(sl, q, 0.95, engine.ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("weighted=%t: %d groups, want %d", weighted, len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Fatalf("group %d key %q, want %q", i, got[i].Key, want[i].Key)
			}
			assertEstimatesMatch(t, got[i].Estimates, want[i].Estimates)
		}
	}
}

// TestAggregateOnSelValidation covers the SelLayer contract errors.
func TestAggregateOnSelValidation(t *testing.T) {
	sl, _ := selEstFixture(t, 256, true, 51)
	q := allAggsQuery(nil)
	bad := sl
	bad.Base = nil
	if _, err := AggregateOnSelOpts(bad, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Error("nil base accepted")
	}
	bad = sl
	bad.Weights = bad.Weights[:1]
	if _, err := AggregateOnSelOpts(bad, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Error("misaligned weights accepted")
	}
	bad = sl
	bad.Positions = vec.Sel{9, 3}
	bad.Weights, bad.CountWeights = nil, nil
	if _, err := AggregateOnSelOpts(bad, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Error("unsorted positions accepted")
	}
	if _, err := AggregateOnSelOpts(sl, engine.Query{Table: "base", Select: []string{"x"}}, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Error("aggregate-less query accepted")
	}
	if _, err := AggregateOnSelOpts(sl, engine.Query{Table: "base", GroupBy: "g",
		Aggs: []engine.AggSpec{{Func: engine.Count}}}, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Error("grouped query accepted on the ungrouped entry point")
	}
	// Empty layer: infinite intervals, no error.
	empty := SelLayer{Name: "e", Base: sl.Base, Positions: vec.Sel{}, BaseRows: sl.BaseRows}
	ests, err := AggregateOnSelOpts(empty, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if !math.IsInf(e.Interval.HalfWidth, 1) {
			t.Errorf("%s: empty layer half-width %v, want +Inf", e.Spec.Name(), e.Interval.HalfWidth)
		}
	}
}
