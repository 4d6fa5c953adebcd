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
	"sciborq/internal/xrand"
)

// groupedFixture: 3 object types with different frequencies and means.
func groupedFixture(t *testing.T, N int) *table.Table {
	t.Helper()
	tb := table.MustNew("base", table.Schema{
		{Name: "type", Type: column.String},
		{Name: "x", Type: column.Float64},
	})
	r := xrand.New(71)
	rows := make([]table.Row, 0, N)
	for i := 0; i < N; i++ {
		u := r.Float64()
		switch {
		case u < 0.6:
			rows = append(rows, table.Row{"GALAXY", 10 + r.NormFloat64()})
		case u < 0.9:
			rows = append(rows, table.Row{"STAR", 20 + r.NormFloat64()})
		default:
			rows = append(rows, table.Row{"QSO", 30 + r.NormFloat64()})
		}
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestGroupedAggregateOnValidation(t *testing.T) {
	tb := groupedFixture(t, 100)
	l := census(tb)
	q := engine.Query{Table: "b", Aggs: []engine.AggSpec{{Func: engine.Count}}}
	if _, err := GroupedAggregateOnSel(l, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Fatal("missing GROUP BY accepted")
	}
	q = engine.Query{Table: "b", GroupBy: "type"}
	if _, err := GroupedAggregateOnSel(l, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Fatal("missing aggregates accepted")
	}
	q = engine.Query{Table: "b", GroupBy: "x", Aggs: []engine.AggSpec{{Func: engine.Count}}}
	if _, err := GroupedAggregateOnSel(l, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Fatal("GROUP BY DOUBLE accepted")
	}
	q = engine.Query{Table: "b", GroupBy: "zzz", Aggs: []engine.AggSpec{{Func: engine.Count}}}
	if _, err := GroupedAggregateOnSel(l, q, 0.95, engine.DefaultExecOptions()); err == nil {
		t.Fatal("missing group column accepted")
	}
}

func TestGroupedEstimatesCoverExactGroups(t *testing.T) {
	const N, n = 60000, 3000
	base := groupedFixture(t, N)
	// Exact per-group counts and means.
	exactCount := map[string]float64{}
	exactMean := map[string]float64{}
	typeCol := base.MustCol("type").(*column.StringCol)
	xs, _ := base.Float64("x")
	for i := 0; i < base.Len(); i++ {
		k := typeCol.Value(int32(i))
		exactCount[k]++
		exactMean[k] += xs[i]
	}
	for k := range exactMean {
		exactMean[k] /= exactCount[k]
	}

	im, err := impression.New(base, impression.Config{Name: "u", Size: n, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		im.Offer(int32(i))
	}
	l := viewLayer(im, N)
	q := engine.Query{
		Table:   "u",
		GroupBy: "type",
		Aggs: []engine.AggSpec{
			{Func: engine.Count},
			{Func: engine.Avg, Arg: expr.ColRef{Name: "x"}, Alias: "m"},
		},
	}
	groups, err := GroupedAggregateOnSel(l, q, 0.99, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, g := range groups {
		count, mean := g.Estimates[0], g.Estimates[1]
		if !count.Interval.Contains(exactCount[g.Key]) {
			t.Fatalf("[%s] count [%v, %v] misses %v",
				g.Key, count.Interval.Lo(), count.Interval.Hi(), exactCount[g.Key])
		}
		if !mean.Interval.Contains(exactMean[g.Key]) {
			t.Fatalf("[%s] mean [%v, %v] misses %v",
				g.Key, mean.Interval.Lo(), mean.Interval.Hi(), exactMean[g.Key])
		}
		// Rarer groups must carry wider relative count errors.
	}
	// QSO (10%) must have a wider count interval than GALAXY (60%).
	rel := map[string]float64{}
	for _, g := range groups {
		rel[g.Key] = g.Estimates[0].RelError()
	}
	if rel["QSO"] <= rel["GALAXY"] {
		t.Fatalf("rare group not wider: %v", rel)
	}
}

func TestGroupedWithPredicate(t *testing.T) {
	base := groupedFixture(t, 20000)
	l := census(base)
	q := engine.Query{
		Table:   "b",
		Where:   expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "x"}, Right: 15},
		GroupBy: "type",
		Aggs:    []engine.AggSpec{{Func: engine.Count}},
	}
	groups, err := GroupedAggregateOnSel(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	// x > 15 removes essentially all galaxies (mean 10): the surviving
	// groups are STAR and QSO plus a possible galaxy tail.
	for _, g := range groups {
		if g.Key == "GALAXY" && g.Estimates[0].Value() > 200 {
			t.Fatalf("galaxy tail too fat: %v", g.Estimates[0].Value())
		}
		if (g.Key == "STAR" || g.Key == "QSO") && g.Estimates[0].Value() == 0 {
			t.Fatalf("group %s lost", g.Key)
		}
	}
}

func TestGroupedGroupOrderIsFirstSeen(t *testing.T) {
	tb := table.MustNew("t", table.Schema{
		{Name: "g", Type: column.Int64},
		{Name: "x", Type: column.Float64},
	})
	for _, r := range []table.Row{
		{int64(7), 1.0}, {int64(3), 2.0}, {int64(7), 3.0}, {int64(1), 4.0},
	} {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	l := census(tb)
	q := engine.Query{Table: "t", GroupBy: "g", Aggs: []engine.AggSpec{{Func: engine.Count}}}
	groups, err := GroupedAggregateOnSel(l, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"7", "3", "1"}
	for i, g := range groups {
		if g.Key != want[i] {
			t.Fatalf("order = %v, want %v", groups, want)
		}
	}
	if math.Abs(groups[0].Estimates[0].Value()-2) > 1e-12 {
		t.Fatalf("group 7 count = %v", groups[0].Estimates[0].Value())
	}
}
