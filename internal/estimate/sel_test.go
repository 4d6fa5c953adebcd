package estimate

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// matLayer is a sample materialised as a standalone table with
// row-aligned weights — the textbook oracle's input.
type matLayer struct {
	table        *table.Table
	weights, pis []float64
	baseRows     int64
}

// selEstFixture builds a base table, a sorted random position vector,
// and the equivalent materialised layer with aligned weights.
func selEstFixture(t *testing.T, n int, weighted bool, seed int64) (SelLayer, matLayer) {
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
	return sl, matLayer{table: layerTable, weights: weights, pis: pis, baseRows: int64(n)}
}

// hajekOracle is the textbook Hájek estimator the selection-native one
// must agree with. It materialises the importance weights u = 1/w over
// every sample row and the membership vector h (1, or the argument, on
// rows in sel; 0 elsewhere), then computes μ̂ = Σu·h / Σu and the
// delta-method variance Σu²(h − μ̂)² / (Σu)² over the whole sample —
// no closed form for the unmatched rows. sel indexes l.table's rows.
func hajekOracle(t *testing.T, l matLayer, aggs []engine.AggSpec, sel vec.Sel, level float64) []Estimate {
	t.Helper()
	n := l.table.Len()
	fpc := stats.FPC(int64(n), l.baseRows)
	importance := func(ws []float64) []float64 {
		u := make([]float64, n)
		for i := range u {
			u[i] = 1
			if ws != nil {
				u[i] = 1 / math.Max(ws[i], stats.WeightFloor)
			}
		}
		return u
	}
	hajek := func(u, h []float64, rows vec.Sel) stats.Interval {
		var sumU, mean, varSum float64
		for _, i := range rows {
			sumU += u[i]
			mean += u[i] * h[i]
		}
		if len(rows) == 0 || sumU == 0 {
			return stats.Interval{HalfWidth: math.Inf(1), Level: level}
		}
		mean /= sumU
		for _, i := range rows {
			d := h[i] - mean
			varSum += u[i] * u[i] * d * d
		}
		se := math.Sqrt(varSum) / sumU * fpc
		return stats.Interval{Estimate: mean, HalfWidth: stats.ZForConfidence(level) * se, Level: level}
	}
	shareWeights := l.pis
	if shareWeights == nil {
		shareWeights = l.weights
	}
	var out []Estimate
	for _, spec := range aggs {
		var g []float64
		if spec.Arg != nil {
			var err error
			if g, err = spec.Arg.EvalF64(l.table); err != nil {
				t.Fatal(err)
			}
		}
		var iv stats.Interval
		switch spec.Func {
		case engine.Count, engine.Sum:
			h := make([]float64, n)
			for _, i := range sel {
				h[i] = 1
				if spec.Func == engine.Sum {
					h[i] = g[i]
				}
			}
			iv = hajek(importance(shareWeights), h, vec.NewSelAll(n)).Scale(float64(l.baseRows))
		case engine.Avg:
			iv = hajek(importance(l.weights), g, sel)
		default: // MIN, MAX, STDDEV: sample statistic, unbounded interval
			st := engine.AggState{Spec: spec}
			st.Moments.ObserveAll(vec.GatherFloat64(g, sel))
			iv = stats.Interval{Estimate: st.Value(), HalfWidth: math.Inf(1), Level: level}
		}
		out = append(out, Estimate{Spec: spec, Interval: iv, SampleRows: len(sel)})
	}
	return out
}

// oracleSel evaluates q's predicate over the materialised layer.
func oracleSel(t *testing.T, l matLayer, q engine.Query) vec.Sel {
	t.Helper()
	sel, err := q.Pred().FilterRange(l.table, 0, l.table.Len())
	if err != nil {
		t.Fatal(err)
	}
	return sel
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
// estimators agree with the textbook Hájek oracle over the materialised
// layer on every aggregate — values and the closed-form share variance —
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
			want := hajekOracle(t, l, q.Aggs, oracleSel(t, l, q), 0.95)
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
// selection-native estimates agree with the oracle applied per group of
// the materialised layer: same keys, same first-seen order, same
// estimates.
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
		keys, err := l.table.Int64("g")
		if err != nil {
			t.Fatal(err)
		}
		var want []GroupEstimate
		var groups []vec.Sel
		groupOf := map[int64]int{}
		for _, row := range oracleSel(t, l, q) {
			gi, ok := groupOf[keys[row]]
			if !ok {
				gi = len(groups)
				groupOf[keys[row]] = gi
				groups = append(groups, nil)
				want = append(want, GroupEstimate{Key: strconv.FormatInt(keys[row], 10)})
			}
			groups[gi] = append(groups[gi], row)
		}
		for gi := range want {
			want[gi].Estimates = hajekOracle(t, l, q.Aggs, groups[gi], 0.95)
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
	bad = sl
	bad.Scan = sl.Positions[:4]
	if _, err := AggregateOnSelOpts(bad, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Error("a scan without sample indices accepted")
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

// linearSampleIndices is the reference of sampleIndices: one walk over
// the whole position vector.
func linearSampleIndices(positions, selBase vec.Sel) vec.Sel {
	out := make(vec.Sel, len(selBase))
	j := 0
	for i, bp := range selBase {
		for j < len(positions) && positions[j] < bp {
			j++
		}
		out[i] = int32(j)
	}
	return out
}

// narrowedScan returns the positions of every keep-th sample and their
// sample indices: a narrowed scan as impression.View.Narrow hands it out.
func narrowedScan(positions vec.Sel, keep int) (scan, idx vec.Sel) {
	for j := 0; j < len(positions); j += keep {
		scan, idx = append(scan, positions[j]), append(idx, int32(j))
	}
	return scan, idx
}

// TestSampleIndicesMatchesLinearWalk checks the galloping lookup, over
// whole layers and over narrowed scans carrying their sample indices,
// against the linear walk over the whole layer.
func TestSampleIndicesMatchesLinearWalk(t *testing.T) {
	positions := vec.Sel{2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}
	rng := rand.New(rand.NewSource(39))
	var every, sparse vec.Sel
	for p := int32(0); p < 5000; p += 1 + int32(rng.Intn(9)) {
		every = append(every, p)
		if rng.Intn(50) == 0 {
			sparse = append(sparse, p)
		}
	}
	ends, endsIdx := vec.Sel{2, 233}, vec.Sel{0, 10}
	scan, scanIdx := narrowedScan(every, 3)
	var scanSparse vec.Sel
	for i, p := range scan {
		if i%7 == 2 {
			scanSparse = append(scanSparse, p)
		}
	}
	for _, c := range []struct {
		name                 string
		positions, scan, idx vec.Sel
		selBase              vec.Sel
	}{
		{"empty input", positions, nil, nil, vec.Sel{}},
		{"empty positions", vec.Sel{}, nil, nil, vec.Sel{}},
		{"every row matching", positions, nil, nil, positions},
		{"first position", positions, nil, nil, vec.Sel{2}},
		{"last position", positions, nil, nil, vec.Sel{233}},
		{"first and last", positions, nil, nil, vec.Sel{2, 233}},
		{"one match", positions, nil, nil, vec.Sel{34}},
		{"adjacent run", positions, nil, nil, vec.Sel{5, 8, 13}},
		{"random sparse", every, nil, nil, sparse},
		{"random dense", every, nil, nil, every[len(every)/3:]},
		{"narrowed: empty scan", positions, vec.Sel{}, vec.Sel{}, vec.Sel{}},
		{"narrowed: no match", positions, ends, endsIdx, vec.Sel{}},
		{"narrowed: every candidate matching", every, scan, scanIdx, scan},
		{"narrowed: first and last sample", positions, ends, endsIdx, ends},
		{"narrowed: last sample", positions, ends, endsIdx, vec.Sel{233}},
		{"narrowed: one match", every, scan, scanIdx, scan[len(scan)/2 : len(scan)/2+1]},
		{"narrowed: random sparse", every, scan, scanIdx, scanSparse},
	} {
		sc, idx := c.scan, c.idx
		if sc == nil {
			sc = c.positions
		}
		got := sampleIndices(sc, idx, c.selBase, true)
		want := linearSampleIndices(c.positions, c.selBase)
		if len(got) != len(want) {
			t.Fatalf("%s: %d indices, want %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: index %d = %d, want %d", c.name, i, got[i], want[i])
			}
		}
	}
	if sampleIndices(positions, nil, positions, false) != nil {
		t.Fatal("unweighted layer got sample indices")
	}
}
