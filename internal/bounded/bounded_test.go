package bounded

import (
	"context"
	"math"
	"testing"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/sqlparse"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/xrand"
)

// fixture builds a base table, a 3-layer uniform hierarchy, and an
// executor.
func fixture(t *testing.T, n int) (*table.Table, *impression.Hierarchy, *Executor) {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "x", Type: column.Float64},
	})
	r := xrand.New(100)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		ra := 120 + r.Float64()*120
		rows = append(rows, table.Row{ra, ra/10 + r.NormFloat64()})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	mk := func(name string, size int, seed uint64) *impression.Impression {
		im, err := impression.New(tb, impression.Config{Name: name, Size: size, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	l0 := mk("L0", n/10, 1)
	l1 := mk("L1", n/100, 2)
	l2 := mk("L2", n/1000, 3)
	h, err := impression.NewHierarchy([]*impression.Impression{l0, l1, l2}, 5000)
	if err != nil {
		t.Fatal(err)
	}
	h.OfferRange(0, int32(n))
	h.Refresh()
	ex, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 10, FixedNs: 1000}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tb, h, ex
}

// runErr runs q under WITHIN ERROR eps CONFIDENCE confidence, uncached.
func runErr(ex *Executor, q engine.Query, eps, confidence float64) (*Answer, error) {
	b := sqlparse.Bounds{MaxRelError: eps, Confidence: confidence}
	return ex.Run(context.Background(), &sqlparse.Statement{Query: q, Bounds: b}, nil)
}

// runTime runs q under WITHIN TIME budget, uncached.
func runTime(ex *Executor, q engine.Query, budget time.Duration) (*Answer, error) {
	b := sqlparse.Bounds{MaxTime: budget}
	return ex.Run(context.Background(), &sqlparse.Statement{Query: q, Bounds: b}, nil)
}

func avgQuery() engine.Query {
	return engine.Query{
		Table: "PhotoObjAll",
		Aggs:  []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"}},
	}
}

func exactAvg(t *testing.T, tb *table.Table) float64 {
	t.Helper()
	xs, err := tb.Float64("x")
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func TestNewExecutorValidation(t *testing.T) {
	if _, err := NewExecutor(nil, nil, engine.CostModel{}, engine.ExecOptions{}); err == nil {
		t.Fatal("nil base accepted")
	}
	tb := table.MustNew("t", table.Schema{{Name: "x", Type: column.Float64}})
	ex, err := NewExecutor(tb, nil, engine.CostModel{}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.cost.NsPerRow <= 0 {
		t.Fatal("degenerate cost model not replaced by default")
	}
}

func TestErrorBoundedLoosenedStopsEarly(t *testing.T) {
	tb, _, ex := fixture(t, 50000)
	ans, err := runErr(ex, avgQuery(), 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.BoundMet {
		t.Fatal("loose bound not met")
	}
	if ans.Exact {
		t.Fatal("5% bound should be satisfiable from a sample layer")
	}
	if len(ans.Trail) == 0 || ans.Trail[len(ans.Trail)-1].Layer != ans.Layer {
		t.Fatalf("trail inconsistent: %+v", ans.Trail)
	}
	truth := exactAvg(t, tb)
	if !ans.Estimates[0].Interval.Contains(truth) {
		t.Fatalf("interval misses truth %v", truth)
	}
}

func TestErrorBoundedEscalatesWithTighterBounds(t *testing.T) {
	_, _, ex := fixture(t, 50000)
	// Measure which layer satisfies each bound; tighter bounds must
	// never use a smaller layer than looser bounds.
	bounds := []float64{0.2, 0.05, 0.01, 0.001}
	prevRows := 0
	for _, eps := range bounds {
		ans, err := runErr(ex, avgQuery(), eps, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.BoundMet {
			t.Fatalf("eps=%v not met", eps)
		}
		rows := ans.Trail[len(ans.Trail)-1].Rows
		if rows < prevRows {
			t.Fatalf("eps=%v used smaller layer (%d rows) than looser bound (%d)", eps, rows, prevRows)
		}
		prevRows = rows
		if got := ans.Estimates[0].RelError(); got > eps {
			t.Fatalf("eps=%v: achieved error %v", eps, got)
		}
	}
}

func TestErrorBoundedImpossibleBoundFallsToBase(t *testing.T) {
	tb, _, ex := fixture(t, 20000)
	// A bound of 1e-9 forces base data (exact).
	ans, err := runErr(ex, avgQuery(), 1e-9, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact || !ans.BoundMet {
		t.Fatalf("expected exact base answer, got %+v", ans.Layer)
	}
	truth := exactAvg(t, tb)
	if math.Abs(ans.Estimates[0].Value()-truth) > 1e-12 {
		t.Fatalf("base answer %v != truth %v", ans.Estimates[0].Value(), truth)
	}
	// Must have tried every sample layer first.
	if len(ans.Trail) != 4 {
		t.Fatalf("trail length = %d, want 4 (3 layers + base)", len(ans.Trail))
	}
}

// TestErrorBoundedValidation: a non-positive ε is no error bound — Run
// answers exactly on the base rung instead of escalating toward a target
// no layer can meet.
func TestErrorBoundedValidation(t *testing.T) {
	_, _, ex := fixture(t, 1000)
	for _, eps := range []float64{0, -0.1} {
		ans, err := runErr(ex, avgQuery(), eps, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Exact || len(ans.Trail) != 1 {
			t.Fatalf("eps=%v: want one exact base rung, got layer %s after %d rungs", eps, ans.Layer, len(ans.Trail))
		}
	}
}

func TestErrorBoundedMinEscalatesToBase(t *testing.T) {
	// MIN cannot be bounded from a sample: any error bound forces base.
	_, _, ex := fixture(t, 10000)
	q := engine.Query{
		Table: "PhotoObjAll",
		Aggs:  []engine.AggSpec{{Func: engine.Min, Arg: expr.ColRef{Name: "x"}}},
	}
	ans, err := runErr(ex, q, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("MIN with error bound must fall through to base data")
	}
}

func TestTimeBoundedPicksLayerWithinBudget(t *testing.T) {
	_, _, ex := fixture(t, 50000)
	// Cost model: 10ns/row + 1µs fixed. Budget 60µs → ~5900 rows →
	// layer L0 (5000 rows) fits, base (50000) does not.
	ans, err := runTime(ex, avgQuery(), 60*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("time budget should exclude base data")
	}
	if ans.Trail[0].Rows != 5000 {
		t.Fatalf("picked layer with %d rows, want 5000", ans.Trail[0].Rows)
	}
	if ans.Promised <= 0 {
		t.Fatal("no promise recorded")
	}
}

func TestTimeBoundedTinyBudgetBestEffort(t *testing.T) {
	_, _, ex := fixture(t, 50000)
	// 2µs budget fits nothing: best effort = smallest layer (50 rows).
	ans, err := runTime(ex, avgQuery(), 2*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Trail[0].Rows != 50 {
		t.Fatalf("best effort used %d rows, want smallest layer 50", ans.Trail[0].Rows)
	}
}

func TestTimeBoundedHugeBudgetUsesBase(t *testing.T) {
	_, _, ex := fixture(t, 20000)
	ans, err := runTime(ex, avgQuery(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("huge budget should allow exact base evaluation")
	}
	if !ans.BoundMet {
		t.Fatal("minute budget must be met")
	}
}

// TestTimeBoundedValidation: a zero budget is no time bound — Run
// answers exactly and promises nothing.
func TestTimeBoundedValidation(t *testing.T) {
	_, _, ex := fixture(t, 1000)
	ans, err := runTime(ex, avgQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact || ans.Promised != 0 {
		t.Fatalf("zero budget: exact=%t promised=%v", ans.Exact, ans.Promised)
	}
}

func TestRunDispatch(t *testing.T) {
	tb, _, ex := fixture(t, 20000)
	truth := exactAvg(t, tb)

	// No bounds: exact.
	st := sqlparse.MustParse("SELECT AVG(x) AS a FROM PhotoObjAll")
	ans, err := ex.Run(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact || math.Abs(ans.Estimates[0].Value()-truth) > 1e-12 {
		t.Fatalf("unbounded run: %+v", ans.Estimates[0])
	}

	// Error bound.
	st = sqlparse.MustParse("SELECT AVG(x) AS a FROM PhotoObjAll WITHIN ERROR 0.05")
	ans, err = ex.Run(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("5% error bound should use a sample layer")
	}

	// Time bound.
	st = sqlparse.MustParse("SELECT AVG(x) AS a FROM PhotoObjAll WITHIN TIME 1m")
	ans, err = ex.Run(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.BoundMet {
		t.Fatal("1-minute budget not met")
	}

	// Only ungrouped aggregates run bounded.
	for _, sql := range []string{
		"SELECT x FROM PhotoObjAll WITHIN TIME 1m",
		"SELECT COUNT(*) FROM PhotoObjAll GROUP BY ra WITHIN ERROR 0.1",
	} {
		if _, err := ex.Run(context.Background(), sqlparse.MustParse(sql), nil); err == nil {
			t.Errorf("%q accepted", sql)
		}
	}
}

func TestRunWithConeAndBothBounds(t *testing.T) {
	_, _, ex := fixture(t, 30000)
	st := sqlparse.MustParse(
		"SELECT COUNT(*) FROM PhotoObjAll WHERE ra BETWEEN 150 AND 210 WITHIN ERROR 0.2 WITHIN TIME 1m")
	ans, err := ex.Run(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimates[0].Value() <= 0 {
		t.Fatal("count estimate not positive")
	}
}

func TestExecutorWithoutHierarchy(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "x", Type: column.Float64}})
	_ = tb.AppendBatch([]table.Row{{1.0}, {2.0}, {3.0}})
	ex, err := NewExecutor(tb, nil, engine.DefaultCostModel(), engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Table: "t", Aggs: []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"}}}
	ans, err := runErr(ex, q, 0.01, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact || ans.Estimates[0].Value() != 2 {
		t.Fatalf("hierless answer = %+v", ans.Estimates[0])
	}
}

// LimitFirstN is the baseline the paper criticises (§3.2): cut the scan
// after the first n matching tuples in storage order and aggregate only
// those — "the lucky N first tuples".
func LimitFirstN(base *table.Table, q engine.Query, n int) (*engine.Result, error) {
	opts := engine.DefaultExecOptions()
	base = base.Snapshot() // selection and aggregation must agree on length
	sel, scan, err := engine.Filter(base, q.Pred(), nil, opts)
	if err != nil {
		return nil, err
	}
	if sel == nil {
		sel = vec.NewSelAll(base.Len())
	}
	if len(sel) > n {
		sel = sel[:n]
	}
	return engine.RunOnFilteredOpts(base, sel, q, scan, opts)
}

func TestLimitFirstNIsUnrepresentative(t *testing.T) {
	// Demonstrate the paper's complaint: data loaded in sorted order
	// makes the first-N cut badly biased, while an impression is not.
	tb := table.MustNew("sorted", table.Schema{{Name: "x", Type: column.Float64}})
	const n = 10000
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, table.Row{float64(i)}) // ascending insert order
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Table: "sorted", Aggs: []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"}}}
	res, err := LimitFirstN(tb, q, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Scalar("a")
	if got != 49.5 { // mean of 0..99: the lucky first tuples
		t.Fatalf("first-N avg = %v, want 49.5", got)
	}
	// True mean is 4999.5; the baseline is off by 100x. An impression
	// layer is not.
	im, _ := impression.New(tb, impression.Config{Name: "u", Size: 100, Seed: 9})
	for i := 0; i < n; i++ {
		im.Offer(int32(i))
	}
	all, _ := tb.Float64("x")
	xs := vec.GatherFloat64(all, im.View().Positions)
	var s float64
	for _, v := range xs {
		s += v
	}
	sampleAvg := s / float64(len(xs))
	if math.Abs(sampleAvg-4999.5) > 1500 {
		t.Fatalf("impression avg = %v, want near 4999.5", sampleAvg)
	}
}

func TestLimitFirstNWithPredicateAndNilSel(t *testing.T) {
	tb := table.MustNew("t", table.Schema{{Name: "x", Type: column.Float64}})
	rows := make([]table.Row, 0, 100)
	for i := 0; i < 100; i++ {
		rows = append(rows, table.Row{float64(i)})
	}
	_ = tb.AppendBatch(rows)
	q := engine.Query{
		Table: "t",
		Where: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "x"}, Right: 50},
		Aggs:  []engine.AggSpec{{Func: engine.Count}},
	}
	res, err := LimitFirstN(tb, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != 10 {
		t.Fatalf("limited count = %v", got)
	}
	// TRUE predicate path (nil selection).
	q.Where = nil
	res, err = LimitFirstN(tb, q, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != 25 {
		t.Fatalf("nil-sel limited count = %v", got)
	}
	// n larger than table.
	res, err = LimitFirstN(tb, q, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != 100 {
		t.Fatalf("oversized limit count = %v", got)
	}
}
