package engine

import (
	"math"
	"reflect"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

func photoTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "fieldID", Type: column.Int64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "rmag", Type: column.Float64},
		{Name: "type", Type: column.String},
	})
	rows := []table.Row{
		{int64(1), int64(10), 185.0, 0.0, 17.5, "GALAXY"},
		{int64(2), int64(10), 185.5, 0.5, 18.0, "GALAXY"},
		{int64(3), int64(11), 190.0, 2.0, 15.0, "STAR"},
		{int64(4), int64(12), 120.0, 45.0, 19.5, "QSO"},
		{int64(5), int64(11), 186.0, -0.5, 16.5, "GALAXY"},
		{int64(6), int64(99), 200.0, 30.0, 21.0, "STAR"},
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestQueryValidate(t *testing.T) {
	cases := []Query{
		{},           // no table
		{Table: "t"}, // selects nothing
		{Table: "t", Select: []string{"a"}, Aggs: []AggSpec{{Func: Count}}}, // mixed
		{Table: "t", Select: []string{"a"}, GroupBy: "g"},                   // groupby without aggs
		{Table: "t", Select: []string{"a"}, Limit: -1},                      // negative limit
	}
	for i, q := range cases {
		if err := q.Validate(); err == nil {
			t.Fatalf("case %d validated", i)
		}
	}
	ok := Query{Table: "t", Aggs: []AggSpec{{Func: Count}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAggSpecName(t *testing.T) {
	if (AggSpec{Func: Count}).Name() != "COUNT(*)" {
		t.Fatal("COUNT(*) name wrong")
	}
	a := AggSpec{Func: Avg, Arg: expr.ColRef{Name: "rmag"}}
	if a.Name() != "AVG(rmag)" {
		t.Fatalf("Name = %q", a.Name())
	}
	a.Alias = "m"
	if a.Name() != "m" {
		t.Fatal("alias not honoured")
	}
}

func TestCountAndAvg(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table: "PhotoObjAll",
		Where: expr.StrEq{Col: "type", Value: "GALAXY"},
		Aggs: []AggSpec{
			{Func: Count},
			{Func: Avg, Arg: expr.ColRef{Name: "rmag"}, Alias: "avg_r"},
			{Func: Sum, Arg: expr.ColRef{Name: "rmag"}, Alias: "sum_r"},
			{Func: Min, Arg: expr.ColRef{Name: "rmag"}, Alias: "min_r"},
			{Func: Max, Arg: expr.ColRef{Name: "rmag"}, Alias: "max_r"},
		},
	}, DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != 3 {
		t.Fatalf("count = %v", got)
	}
	if got, _ := res.Scalar("avg_r"); math.Abs(got-(17.5+18.0+16.5)/3) > 1e-12 {
		t.Fatalf("avg = %v", got)
	}
	if got, _ := res.Scalar("sum_r"); math.Abs(got-52.0) > 1e-12 {
		t.Fatalf("sum = %v", got)
	}
	if got, _ := res.Scalar("min_r"); got != 16.5 {
		t.Fatalf("min = %v", got)
	}
	if got, _ := res.Scalar("max_r"); got != 18.0 {
		t.Fatalf("max = %v", got)
	}
	if res.ScannedRows != 6 {
		t.Fatalf("ScannedRows = %d", res.ScannedRows)
	}
}

func TestStdDevAgg(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table: "PhotoObjAll",
		Aggs:  []AggSpec{{Func: StdDev, Arg: expr.ColRef{Name: "rmag"}, Alias: "sd"}},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := res.Scalar("sd")
	if got <= 0 {
		t.Fatalf("stddev = %v", got)
	}
}

func TestEmptySelectionAggregates(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table: "PhotoObjAll",
		Where: expr.StrEq{Col: "type", Value: "NEBULA"},
		Aggs: []AggSpec{
			{Func: Count},
			{Func: Avg, Arg: expr.ColRef{Name: "rmag"}, Alias: "a"},
		},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != 0 {
		t.Fatalf("count over empty = %v", got)
	}
	if got, _ := res.Scalar("a"); got != 0 {
		t.Fatalf("avg over empty = %v (zero-value contract)", got)
	}
}

func TestProjection(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table:  "PhotoObjAll",
		Where:  expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "dec"}, Right: 1.0},
		Select: []string{"objID", "ra"},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows = %d", res.Len())
	}
	ra, _ := res.Float64Col("ra")
	if !reflect.DeepEqual(ra, []float64{190, 120, 200}) {
		t.Fatalf("ra = %v", ra)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table:   "PhotoObjAll",
		Select:  []string{"objID", "rmag"},
		OrderBy: "rmag",
		Limit:   2,
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rmag, _ := res.Float64Col("rmag")
	if !reflect.DeepEqual(rmag, []float64{15.0, 16.5}) {
		t.Fatalf("ascending top2 = %v", rmag)
	}
	res, err = RunOnOpts(tb, Query{
		Table:   "PhotoObjAll",
		Select:  []string{"rmag"},
		OrderBy: "rmag",
		Desc:    true,
		Limit:   2,
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rmag, _ = res.Float64Col("rmag")
	if !reflect.DeepEqual(rmag, []float64{21.0, 19.5}) {
		t.Fatalf("descending top2 = %v", rmag)
	}
}

func TestOrderByMissingColumn(t *testing.T) {
	tb := photoTable(t)
	_, err := RunOnOpts(tb, Query{Table: "PhotoObjAll", Select: []string{"ra"}, OrderBy: "zzz"}, ExecOptions{})
	if err == nil {
		t.Fatal("ORDER BY missing column accepted")
	}
}

func TestGroupBy(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table:   "PhotoObjAll",
		GroupBy: "type",
		Aggs: []AggSpec{
			{Func: Count},
			{Func: Avg, Arg: expr.ColRef{Name: "rmag"}, Alias: "avg_r"},
		},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d", res.Len())
	}
	// First-seen order: GALAXY, STAR, QSO.
	counts, _ := res.Float64Col("COUNT(*)")
	if !reflect.DeepEqual(counts, []float64{3, 2, 1}) {
		t.Fatalf("group counts = %v", counts)
	}
	avgs, _ := res.Float64Col("avg_r")
	if math.Abs(avgs[1]-18.0) > 1e-12 { // STAR: (15+21)/2
		t.Fatalf("star avg = %v", avgs[1])
	}
}

func TestGroupByInt64KeyWithOrderLimit(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table:   "PhotoObjAll",
		GroupBy: "fieldID",
		Aggs:    []AggSpec{{Func: Count, Alias: "n"}},
		OrderBy: "n",
		Desc:    true,
		Limit:   2,
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("limited groups = %d", res.Len())
	}
	n, _ := res.Float64Col("n")
	if !reflect.DeepEqual(n, []float64{2, 2}) {
		t.Fatalf("top counts = %v", n)
	}
}

func TestGroupByUnsupportedType(t *testing.T) {
	tb := photoTable(t)
	_, err := RunOnOpts(tb, Query{
		Table:   "PhotoObjAll",
		GroupBy: "ra",
		Aggs:    []AggSpec{{Func: Count}},
	}, ExecOptions{})
	if err == nil {
		t.Fatal("GROUP BY DOUBLE accepted")
	}
}

func TestGroupByWithWhere(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{
		Table:   "PhotoObjAll",
		Where:   expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "rmag"}, Right: 19.0},
		GroupBy: "type",
		Aggs:    []AggSpec{{Func: Count, Alias: "n"}},
	}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Float64Col("n")
	if !reflect.DeepEqual(n, []float64{3, 1}) { // GALAXY 3, STAR 1
		t.Fatalf("filtered group counts = %v", n)
	}
}

func TestScalarErrors(t *testing.T) {
	tb := photoTable(t)
	res, err := RunOnOpts(tb, Query{Table: "PhotoObjAll", Select: []string{"ra"}}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Scalar("ra"); err == nil {
		t.Fatal("multi-row Scalar accepted")
	}
	if _, err := res.Scalar("missing"); err == nil {
		t.Fatal("missing column Scalar accepted")
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{NsPerRow: 10, FixedNs: 1000}
	if got := m.Predict(100); got.Nanoseconds() != 2000 {
		t.Fatalf("Predict = %v", got)
	}
	if got := m.MaxRowsWithin(2000); got != 100 {
		t.Fatalf("MaxRowsWithin = %d", got)
	}
	if got := m.MaxRowsWithin(500); got != 0 {
		t.Fatalf("tiny budget rows = %d", got)
	}
	free := CostModel{NsPerRow: 0, FixedNs: 0}
	if free.MaxRowsWithin(1) <= 0 {
		t.Fatal("zero-cost model should allow everything")
	}
}

func TestCalibrateProducesUsableModel(t *testing.T) {
	m := Calibrate(50_000, ExecOptions{})
	if m.NsPerRow <= 0 {
		t.Fatalf("calibrated NsPerRow = %v", m.NsPerRow)
	}
	if m.Predict(1_000_000) <= 0 {
		t.Fatal("prediction not positive")
	}
	d := DefaultCostModel()
	if d.NsPerRow <= 0 || d.FixedNs <= 0 {
		t.Fatal("default model degenerate")
	}
}

func TestAggFuncString(t *testing.T) {
	want := map[AggFunc]string{Count: "COUNT", Sum: "SUM", Avg: "AVG", Min: "MIN", Max: "MAX", StdDev: "STDDEV"}
	for f, s := range want {
		if f.String() != s {
			t.Fatalf("%d String = %q", f, f.String())
		}
	}
}
