package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

func prefilteredFixture(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("pf", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "v", Type: column.Float64},
		{Name: "g", Type: column.Int64},
	})
	rng := rand.New(rand.NewSource(11))
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, table.Row{rng.Float64() * 100, rng.NormFloat64(), int64(i % 7)})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestRunOnFilteredMatchesRunOn asserts the prefiltered path is
// bit-identical to the cold path for every query shape it serves:
// feeding the cold scan's own selection back through RunOnFilteredOpts
// must reproduce the cold result exactly, at every parallelism level.
func TestRunOnFilteredMatchesRunOn(t *testing.T) {
	tb := prefilteredFixture(t, 3000)
	pred := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 10, Hi: 60}
	queries := []Query{
		{Table: "pf", Where: pred, Aggs: []AggSpec{
			{Func: Count, Alias: "c"},
			{Func: Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"},
			{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "a"},
			{Func: StdDev, Arg: expr.ColRef{Name: "v"}, Alias: "sd"},
		}},
		{Table: "pf", Where: pred, GroupBy: "g", Aggs: []AggSpec{
			{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "a"},
			{Func: Count, Alias: "c"},
		}},
		{Table: "pf", Where: pred, Select: []string{"x", "v"}, OrderBy: "x", Limit: 25},
		{Table: "pf", Where: pred, Select: []string{"v"}, Limit: 10}, // prefix LIMIT, no sampling
	}
	for _, workers := range []int{1, 4} {
		// Small morsels so the 3000-row fixture spans many granules.
		opts := ExecOptions{Parallelism: workers, MorselRows: 256}
		for qi, q := range queries {
			snap := tb.Snapshot()
			sel, scan, err := Filter(snap, q.Pred(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := RunOnOpts(snap, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := RunOnFilteredOpts(snap, sel, q, scan, opts)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Len() != warm.Len() {
				t.Fatalf("workers=%d query %d: %d vs %d rows", workers, qi, cold.Len(), warm.Len())
			}
			for _, name := range cold.Table.Schema().Names() {
				cc, errC := cold.Table.Float64(name)
				wc, errW := warm.Table.Float64(name)
				if errC != nil || errW != nil {
					// Non-float column (group key): compare rendered rows below.
					continue
				}
				if !reflect.DeepEqual(cc, wc) {
					t.Fatalf("workers=%d query %d column %s: %v vs %v", workers, qi, name, cc, wc)
				}
			}
			for i := 0; i < cold.Len(); i++ {
				if !reflect.DeepEqual(cold.Table.RowStrings(int32(i)), warm.Table.RowStrings(int32(i))) {
					t.Fatalf("workers=%d query %d row %d differs", workers, qi, i)
				}
			}
		}
	}
}

// TestRunOnFilteredNilSelection covers the defensive "all rows" case.
func TestRunOnFilteredNilSelection(t *testing.T) {
	tb := prefilteredFixture(t, 100)
	q := Query{Table: "pf", Aggs: []AggSpec{{Func: Count, Alias: "c"}}}
	res, err := RunOnFilteredOpts(tb, nil, q, ScanStats{}, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Scalar("c")
	if err != nil {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("COUNT over nil selection = %v, want 100", got)
	}
}

// TestSelDriverMorselLayout pins the property the bit-identical claim
// rests on: a scan over an already-computed selection presents its parts
// under the same morsel indices and windows a cold scan would use.
func TestSelDriverMorselLayout(t *testing.T) {
	positions := vec.Sel{0, 1, 255, 256, 700, 701, 999}
	opts := ExecOptions{Parallelism: 1, MorselRows: 256}
	var got []part
	tb := table.MustNew("layout", table.Schema{{Name: "x", Type: column.Float64}})
	_, err := scan(tb, scanParts(positions, 1000, opts), expr.TruePred{}, opts, func(p part, sel vec.Sel) error {
		got = append(got, part{p.m, p.lo, p.hi, append(vec.Sel(nil), sel...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []part{
		{0, 0, 256, vec.Sel{0, 1, 255}},
		{1, 256, 512, vec.Sel{256}},
		{2, 512, 768, vec.Sel{700, 701}},
		{3, 768, 1000, vec.Sel{999}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parts = %+v, want %+v", got, want)
	}
}
