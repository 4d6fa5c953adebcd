package estimate

import (
	"math"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// population builds a base table of n rows: x ~ Normal(mu, sigma) and a
// uniform position column for focal predicates.
func population(t *testing.T, n int, mu, sigma float64, seed uint64) *table.Table {
	t.Helper()
	tb := table.MustNew("base", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "x", Type: column.Float64},
	})
	r := xrand.New(seed)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, table.Row{120 + r.Float64()*120, mu + r.NormFloat64()*sigma})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

// viewLayer is the selection layer over an impression's current view —
// the shape bounded execution evaluates.
func viewLayer(im *impression.Impression, baseRows int) SelLayer {
	v := im.View()
	return SelLayer{
		Name: im.Name(), Base: im.Base(), Positions: v.Positions,
		Weights: v.Weights, CountWeights: v.Pis, ShareSums: v.ShareSums,
		BaseRows: int64(baseRows),
	}
}

// census is the layer holding every row of tb: a standalone table as a
// selection layer over itself, and a sample equal to its population.
func census(tb *table.Table) SelLayer {
	return SelLayer{Name: tb.Name(), Base: tb, Positions: vec.NewSelAll(tb.Len()), BaseRows: int64(tb.Len())}
}

func exactAvg(t *testing.T, tb *table.Table, col string) float64 {
	t.Helper()
	xs, err := tb.Float64(col)
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func TestLayerValidate(t *testing.T) {
	tb := population(t, 10, 0, 1, 1)
	l := census(tb)
	if err := (SelLayer{}).Validate(); err == nil {
		t.Fatal("nil base accepted")
	}
	bad := l
	bad.Weights = []float64{1}
	if err := bad.Validate(); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
	bad = l
	bad.BaseRows = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative base rows accepted")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateOnRejections(t *testing.T) {
	l := census(population(t, 10, 0, 1, 1))
	opts := engine.DefaultExecOptions()
	if _, err := AggregateOnSelOpts(l, engine.Query{Table: "x", Select: []string{"x"}}, 0.95, opts); err == nil {
		t.Fatal("non-aggregate query accepted")
	}
	q := engine.Query{Table: "x", GroupBy: "g", Aggs: []engine.AggSpec{{Func: engine.Count}}}
	if _, err := AggregateOnSelOpts(l, q, 0.95, opts); err == nil {
		t.Fatal("grouped query accepted")
	}
}

// TestExactLayerZeroError: a layer holding the whole population has
// zero error — the finite-population correction closes every interval
// and the estimates are the exact aggregates.
func TestExactLayerZeroError(t *testing.T) {
	tb := population(t, 1000, 10, 2, 2)
	q := engine.Query{
		Table: "base",
		Aggs: []engine.AggSpec{
			{Func: engine.Count},
			{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"},
		},
	}
	ests, err := AggregateOnSelOpts(census(tb), q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ests[0].Value() != 1000 || ests[0].RelError() != 0 {
		t.Fatalf("census count = %+v", ests[0])
	}
	want := exactAvg(t, tb, "x")
	if math.Abs(ests[1].Value()-want) > 1e-12 || ests[1].RelError() != 0 {
		t.Fatalf("census avg = %v ± %v, want %v", ests[1].Value(), ests[1].Interval.HalfWidth, want)
	}
}

func TestUniformSampleEstimates(t *testing.T) {
	const N, n = 50000, 2000
	tb := population(t, N, 10, 2, 3)
	im, err := impression.New(tb, impression.Config{Name: "u", Size: n, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		im.Offer(int32(i))
	}
	l := viewLayer(im, N)
	q := engine.Query{
		Table: "u",
		Aggs: []engine.AggSpec{
			{Func: engine.Count},
			{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "avg"},
			{Func: engine.Sum, Arg: expr.ColRef{Name: "x"}, Alias: "sum"},
		},
	}
	ests, err := AggregateOnSelOpts(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	// COUNT with TRUE predicate: estimate must be exactly N (indicator
	// is 1 everywhere, self-normalised mean is 1).
	if math.Abs(ests[0].Value()-N) > 1e-6 {
		t.Fatalf("count estimate = %v", ests[0].Value())
	}
	want := exactAvg(t, tb, "x")
	if !ests[1].Interval.Contains(want) {
		t.Fatalf("avg interval [%v, %v] misses truth %v",
			ests[1].Interval.Lo(), ests[1].Interval.Hi(), want)
	}
	if ests[1].RelError() <= 0 || ests[1].RelError() > 0.05 {
		t.Fatalf("avg relative error = %v", ests[1].RelError())
	}
	wantSum := want * N
	if !ests[2].Interval.Contains(wantSum) {
		t.Fatalf("sum interval [%v, %v] misses truth %v",
			ests[2].Interval.Lo(), ests[2].Interval.Hi(), wantSum)
	}
}

func TestCountWithPredicate(t *testing.T) {
	const N, n = 40000, 2000
	tb := population(t, N, 0, 1, 5)
	// Exact count of ra in [150, 180).
	ra, _ := tb.Float64("ra")
	exact := 0
	for _, v := range ra {
		if v >= 150 && v < 180 {
			exact++
		}
	}
	im, _ := impression.New(tb, impression.Config{Name: "u", Size: n, Seed: 6})
	for i := 0; i < N; i++ {
		im.Offer(int32(i))
	}
	l := viewLayer(im, N)
	q := engine.Query{
		Table: "u",
		Where: expr.And{
			L: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "ra"}, Right: 150},
			R: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "ra"}, Right: 180},
		},
		Aggs: []engine.AggSpec{{Func: engine.Count}},
	}
	ests, err := AggregateOnSelOpts(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ests[0].Interval.Contains(float64(exact)) {
		t.Fatalf("count interval [%v, %v] misses truth %d",
			ests[0].Interval.Lo(), ests[0].Interval.Hi(), exact)
	}
	if ests[0].SampleRows == 0 {
		t.Fatal("no sample support recorded")
	}
}

func TestMinMaxUnbounded(t *testing.T) {
	tb := population(t, 1000, 5, 1, 7)
	im, _ := impression.New(tb, impression.Config{Name: "u", Size: 100, Seed: 8})
	for i := 0; i < 1000; i++ {
		im.Offer(int32(i))
	}
	l := viewLayer(im, 1000)
	q := engine.Query{Table: "u", Aggs: []engine.AggSpec{
		{Func: engine.Min, Arg: expr.ColRef{Name: "x"}},
		{Func: engine.Max, Arg: expr.ColRef{Name: "x"}},
		{Func: engine.StdDev, Arg: expr.ColRef{Name: "x"}},
	}}
	ests, err := AggregateOnSelOpts(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ests {
		if !math.IsInf(e.Interval.HalfWidth, 1) {
			t.Fatalf("%s interval should be unbounded on a sample", e.Spec.Func)
		}
	}
}

func TestEmptyLayer(t *testing.T) {
	tb := table.MustNew("empty", table.Schema{{Name: "x", Type: column.Float64}})
	l := SelLayer{Base: tb, Positions: vec.Sel{}, BaseRows: 1000}
	q := engine.Query{Table: "e", Aggs: []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}}}}
	ests, err := AggregateOnSelOpts(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ests[0].Interval.HalfWidth, 1) {
		t.Fatal("empty layer should give unbounded interval")
	}
}

func TestEmptySelection(t *testing.T) {
	tb := population(t, 100, 0, 1, 9)
	l := SelLayer{Base: tb, Positions: vec.NewSelAll(tb.Len()), BaseRows: 10000}
	q := engine.Query{
		Table: "u",
		Where: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "ra"}, Right: 999},
		Aggs:  []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}}},
	}
	ests, err := AggregateOnSelOpts(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ests[0].Interval.HalfWidth, 1) {
		t.Fatal("no-support AVG should be unbounded")
	}
}

// biasedLayer builds a biased impression focused on ra≈160 over a
// population whose x depends on ra, so bias matters.
func biasedLayer(t *testing.T, N, n int, seed uint64) (SelLayer, *table.Table) {
	t.Helper()
	tb := table.MustNew("base", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "x", Type: column.Float64},
	})
	r := xrand.New(seed)
	rows := make([]table.Row, 0, N)
	for i := 0; i < N; i++ {
		ra := 120 + r.Float64()*120
		// x correlates with ra: E[x | ra] = ra/10.
		x := ra/10 + r.NormFloat64()
		rows = append(rows, table.Row{ra, x})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	logger, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		logger.LogPoints([]expr.Point{{Attr: "ra", Value: 160 + r.NormFloat64()*5}})
	}
	im, err := impression.New(tb, impression.Config{
		Name: "b", Size: n, Policy: impression.Biased,
		Logger: logger, Attrs: []string{"ra"}, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		im.Offer(int32(i))
	}
	return viewLayer(im, N), tb
}

func TestBiasedEstimatesCoverTruthOnFocalQuery(t *testing.T) {
	l, base := biasedLayer(t, 60000, 3000, 11)
	// Focal query: AVG(x) for ra in [150, 170).
	ra, _ := base.Float64("ra")
	x, _ := base.Float64("x")
	var sum float64
	cnt := 0
	for i := range ra {
		if ra[i] >= 150 && ra[i] < 170 {
			sum += x[i]
			cnt++
		}
	}
	truth := sum / float64(cnt)
	q := engine.Query{
		Table: "b",
		Where: expr.And{
			L: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "ra"}, Right: 150},
			R: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "ra"}, Right: 170},
		},
		Aggs: []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"}},
	}
	ests, err := AggregateOnSelOpts(l, q, 0.99, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ests[0].Interval.Contains(truth) {
		t.Fatalf("focal AVG interval [%v, %v] misses truth %v",
			ests[0].Interval.Lo(), ests[0].Interval.Hi(), truth)
	}
	// With heavy focal oversampling the relative error must be small.
	if ests[0].RelError() > 0.02 {
		t.Fatalf("focal relative error = %v", ests[0].RelError())
	}
}

func TestBiasedGlobalCountUnbiased(t *testing.T) {
	// Weighted estimation must undo the bias for whole-table aggregates:
	// COUNT of ra >= 200 (anti-focal) should still cover the truth.
	l, base := biasedLayer(t, 60000, 3000, 13)
	ra, _ := base.Float64("ra")
	exact := 0
	for _, v := range ra {
		if v >= 200 {
			exact++
		}
	}
	q := engine.Query{
		Table: "b",
		Where: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "ra"}, Right: 200},
		Aggs:  []engine.AggSpec{{Func: engine.Count}},
	}
	ests, err := AggregateOnSelOpts(l, q, 0.99, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ests[0].Interval.Contains(float64(exact)) {
		t.Fatalf("anti-focal count interval [%v, %v] misses truth %d",
			ests[0].Interval.Lo(), ests[0].Interval.Hi(), exact)
	}
	// Anti-focal queries must be *less* precise than focal ones — the
	// documented downside of biased sampling (§4).
	if ests[0].RelError() <= 0 {
		t.Fatal("anti-focal count has no error")
	}
}

func TestUniformIntervalCoverage(t *testing.T) {
	// Repeated uniform sampling: the 95% AVG interval must cover the
	// population mean at roughly the nominal rate.
	const N, n, trials = 20000, 500, 120
	tb := population(t, N, 10, 3, 17)
	truth := exactAvg(t, tb, "x")
	q := engine.Query{Table: "u", Aggs: []engine.AggSpec{
		{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"}}}
	covered := 0
	for tr := 0; tr < trials; tr++ {
		im, _ := impression.New(tb, impression.Config{Name: "u", Size: n, Seed: uint64(1000 + tr)})
		for i := 0; i < N; i++ {
			im.Offer(int32(i))
		}
		ests, err := AggregateOnSelOpts(viewLayer(im, N), q, 0.95, engine.DefaultExecOptions())
		if err != nil {
			t.Fatal(err)
		}
		if ests[0].Interval.Contains(truth) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.88 {
		t.Fatalf("95%% interval covered only %.2f", rate)
	}
}
