package engine

import (
	"cmp"
	"math"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
)

// orderTable builds 200 rows: x = row index with NaN at rows 7, 50 and
// 120, id a permutation of 2^53 + [0, 200) (adjacent ids collapse when
// widened to float64), and g = row mod 5.
func orderTable(t *testing.T) *table.Table {
	t.Helper()
	const n = 200
	xs, ids, gs := make([]float64, n), make([]int64, n), make([]int64, n)
	for i := range xs {
		xs[i] = float64(i)
		ids[i] = 1<<53 + int64(i*7%n) // 7 is coprime to 200: a permutation
		gs[i] = int64(i % 5)
	}
	for _, i := range []int{7, 50, 120} {
		xs[i] = math.NaN()
	}
	tb := table.MustNew("t", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "id", Type: column.Int64},
		{Name: "g", Type: column.Int64},
	})
	if err := tb.AppendColumns([]column.Column{
		column.NewFloat64From("x", xs),
		column.NewInt64From("id", ids),
		column.NewInt64From("g", gs),
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// checkOrdered asserts vals is sorted by cmp.Compare, descending when
// desc, and holds exactly nans NaNs.
func checkOrdered(t *testing.T, what string, vals []float64, desc bool, nans int) {
	t.Helper()
	got := 0
	for i, v := range vals {
		if math.IsNaN(v) {
			got++
		}
		if i == 0 {
			continue
		}
		c := cmp.Compare(vals[i-1], v)
		if desc {
			c = -c
		}
		if c > 0 {
			t.Fatalf("%s: row %d (%v) out of order after %v: %v", what, i, v, vals[i-1], vals)
		}
	}
	if got != nans {
		t.Fatalf("%s: %d NaNs, want %d: %v", what, got, nans, vals)
	}
}

// TestOrderByTotalOrder pins ORDER BY as a total order: NaN keys sort
// below every number (first ascending, last descending) instead of
// scrambling the rows around them, BIGINT keys sort exactly as int64
// even where float64 cannot tell them apart, and grouped results order
// by an aggregate output — NaN included — through the same sort.
func TestOrderByTotalOrder(t *testing.T) {
	tb := orderTable(t)
	opts := ExecOptions{Parallelism: 2, MorselRows: 64}
	run := func(q Query) *Result {
		t.Helper()
		res, err := RunOnOpts(tb, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	col := func(res *Result, name string) []float64 {
		t.Helper()
		vals, err := res.Float64Col(name)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}

	asc := col(run(Query{Table: "t", Select: []string{"x"}, OrderBy: "x", Limit: 12}), "x")
	checkOrdered(t, "ORDER BY x LIMIT 12", asc, false, 3)
	for i, want := range []float64{0, 1, 2, 3, 4, 5, 6, 8, 9} {
		if asc[3+i] != want {
			t.Fatalf("ORDER BY x LIMIT 12 = %v, want three NaNs then 0..6, 8, 9", asc)
		}
	}
	desc := col(run(Query{Table: "t", Select: []string{"x"}, OrderBy: "x", Desc: true}), "x")
	checkOrdered(t, "ORDER BY x DESC", desc, true, 3)
	if desc[0] != 199 || !math.IsNaN(desc[len(desc)-1]) {
		t.Fatalf("ORDER BY x DESC runs %v .. %v, want 199 .. NaN", desc[0], desc[len(desc)-1])
	}

	for _, d := range []bool{false, true} {
		res := run(Query{Table: "t", Select: []string{"id", "x"}, OrderBy: "id", Desc: d, Limit: 3})
		ids, err := res.Table.Int64("id")
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2}
		if d {
			want = []int64{1<<53 + 199, 1<<53 + 198, 1<<53 + 197}
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("ORDER BY id (desc=%v) LIMIT 3 = %v, want %v", d, ids, want)
			}
		}
	}

	for _, d := range []bool{false, true} {
		q := Query{Table: "t", GroupBy: "g", OrderBy: "a", Desc: d,
			Aggs: []AggSpec{{Func: Avg, Arg: expr.ColRef{Name: "x"}, Alias: "a"}}}
		// NaN rows 7, 50 and 120 fall in groups 2 and 0: two NaN averages.
		checkOrdered(t, "GROUP BY g ORDER BY AVG(x)", col(run(q), "a"), d, 2)
	}
}
