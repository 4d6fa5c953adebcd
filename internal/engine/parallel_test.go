package engine

import (
	"reflect"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// gridTable builds a deterministic synthetic table large enough to span
// many morsels at the test morsel granule.
func gridTable(t testing.TB, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("grid", table.Schema{
		{Name: "id", Type: column.Int64},
		{Name: "g", Type: column.Int64},
		{Name: "cat", Type: column.String},
		{Name: "x", Type: column.Float64},
		{Name: "v", Type: column.Float64},
	})
	cats := []string{"GALAXY", "STAR", "QSO", "UNKNOWN"}
	ids := make([]int64, n)
	gs := make([]int64, n)
	xs := make([]float64, n)
	vs := make([]float64, n)
	cat := column.NewString("cat")
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		ids[i] = int64(i)
		gs[i] = int64(state>>61) % 8
		cat.Append(cats[(state>>13)%4])
		xs[i] = float64(state%1_000_003) / 1_000_003
		vs[i] = float64(int64(state>>20)%2001-1000) / 7
	}
	if err := tb.AppendColumns([]column.Column{
		column.NewInt64From("id", ids),
		column.NewInt64From("g", gs),
		cat,
		column.NewFloat64From("x", xs),
		column.NewFloat64From("v", vs),
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// seqFilter is the sequential reference selection: pred evaluated over
// the whole table in one kernel call, with no morsels, pruning or
// predicate preparation.
func seqFilter(t *testing.T, tb *table.Table, pred expr.Predicate) vec.Sel {
	t.Helper()
	sel, err := pred.FilterRange(tb, 0, tb.Len())
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// sameResult asserts two results are identical: same schema, same row
// count, and bit-identical cell values (compared through RowStrings,
// which is exact for identical floating-point bits).
func sameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if want.ScannedRows != got.ScannedRows {
		t.Fatalf("ScannedRows: want %d, got %d", want.ScannedRows, got.ScannedRows)
	}
	wantNames := want.Table.Schema().Names()
	gotNames := got.Table.Schema().Names()
	if !reflect.DeepEqual(wantNames, gotNames) {
		t.Fatalf("schema: want %v, got %v", wantNames, gotNames)
	}
	if want.Len() != got.Len() {
		t.Fatalf("rows: want %d, got %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w := want.Table.RowStrings(int32(i))
		g := got.Table.RowStrings(int32(i))
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("row %d: want %v, got %v", i, w, g)
		}
	}
}

// gridQueries is the property grid: filters, every aggregate, GROUP BY
// on BIGINT and VARCHAR keys, boolean predicate combinators, and
// projections with ORDER BY / LIMIT.
func gridQueries() map[string]Query {
	between := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.2, Hi: 0.7}
	tails := expr.Or{
		L: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 0.1},
		R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "x"}, Right: 0.9},
	}
	allAggs := []AggSpec{
		{Func: Count},
		{Func: Sum, Arg: expr.ColRef{Name: "v"}},
		{Func: Avg, Arg: expr.ColRef{Name: "v"}},
		{Func: Min, Arg: expr.ColRef{Name: "v"}},
		{Func: Max, Arg: expr.ColRef{Name: "v"}},
		{Func: StdDev, Arg: expr.ColRef{Name: "v"}},
	}
	return map[string]Query{
		"count_star": {Table: "grid", Aggs: []AggSpec{{Func: Count}}},
		"all_aggs_between": {
			Table: "grid", Where: between, Aggs: allAggs,
		},
		"avg_or_tails": {
			Table: "grid", Where: tails,
			Aggs: []AggSpec{{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "a"}},
		},
		"sum_not": {
			Table: "grid", Where: expr.Not{P: between},
			Aggs: []AggSpec{{Func: Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"}},
		},
		"count_streq_and": {
			Table: "grid",
			Where: expr.And{L: expr.StrEq{Col: "cat", Value: "GALAXY"}, R: between},
			Aggs:  []AggSpec{{Func: Count}},
		},
		// Int64 comparison and Arith scalars exercise preparePred: their
		// materialisation is shared across morsels rather than rebuilt.
		"avg_int64_cmp": {
			Table: "grid",
			Where: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "g"}, Right: 3},
			Aggs:  []AggSpec{{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "m"}},
		},
		"count_arith_between": {
			Table: "grid",
			Where: expr.Between{
				Expr: expr.Arith{Op: expr.Add, L: expr.ColRef{Name: "x"}, R: expr.Const{V: 0.25}},
				Lo:   0.5, Hi: 1.0,
			},
			Aggs: []AggSpec{{Func: Count}},
		},
		"group_by_int": {
			Table: "grid", Where: between, GroupBy: "g",
			Aggs: []AggSpec{
				{Func: Count},
				{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "m"},
			},
		},
		"group_by_string_ordered": {
			Table: "grid", GroupBy: "cat", OrderBy: "s", Desc: true,
			Aggs: []AggSpec{{Func: Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"}},
		},
		"projection_order_limit": {
			Table: "grid", Where: between,
			Select: []string{"id", "x"}, OrderBy: "x", Limit: 100,
		},
		"projection_star": {
			Table: "grid", Where: tails, Select: []string{"*"}, Limit: 50,
		},
	}
}

// TestParallelSequentialEquivalence runs the query grid at Parallelism
// 1 vs 2, 4 and 8 (morsel granule 4096, so ~12 morsels) and requires
// bit-identical results: parallelism must change latency only.
func TestParallelSequentialEquivalence(t *testing.T) {
	tb := gridTable(t, 50_000)
	for name, q := range gridQueries() {
		t.Run(name, func(t *testing.T) {
			seq, err := RunOnOpts(tb, q, ExecOptions{Parallelism: 1, MorselRows: 4096})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := RunOnOpts(tb, q, ExecOptions{Parallelism: workers, MorselRows: 4096})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, seq, par)
			}
		})
	}
}

// TestSingleMorselMatchesLegacySequential checks that a table no larger
// than one morsel produces exactly what the original single-pass
// pipeline produced: the whole-table path must stay bit-identical.
func TestSingleMorselMatchesLegacySequential(t *testing.T) {
	tb := gridTable(t, 8192)
	for name, q := range gridQueries() {
		t.Run(name, func(t *testing.T) {
			// Default MorselRows (64K) > 8192 rows: one morsel.
			one, err := RunOnOpts(tb, q, ExecOptions{Parallelism: 8})
			if err != nil {
				t.Fatal(err)
			}
			// Legacy shape: filter everything, then fold each aggregate's
			// input in one sequential pass.
			if len(q.Aggs) > 0 && q.GroupBy == "" {
				sel := seqFilter(t, tb, q.Pred())
				states := make([]AggState, len(q.Aggs))
				for i, a := range q.Aggs {
					states[i].Spec = a
					if a.Arg == nil {
						for k := len(sel); k > 0; k-- {
							states[i].Moments.Observe(1)
						}
						continue
					}
					vals, err := a.Arg.EvalF64(tb)
					if err != nil {
						t.Fatal(err)
					}
					states[i].Moments.ObserveAll(vec.GatherFloat64(vals, sel))
				}
				legacy, err := resultFromStates(q, states)
				if err != nil {
					t.Fatal(err)
				}
				legacy.ScannedRows = tb.Len()
				sameResult(t, legacy, one)
			}
		})
	}
}

// TestParallelFilterMatchesSequential checks Filter returns the exact
// selection of an unrestricted sequential predicate evaluation.
func TestParallelFilterMatchesSequential(t *testing.T) {
	tb := gridTable(t, 30_000)
	pred := expr.Or{
		L: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.4, Hi: 0.6},
		R: expr.StrEq{Col: "cat", Value: "QSO"},
	}
	want := seqFilter(t, tb, pred)
	got, _, err := Filter(tb, pred, nil, ExecOptions{Parallelism: 4, MorselRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel filter diverges: want %d rows, got %d", len(want), len(got))
	}
	// TRUE predicate short-circuits to nil (all rows).
	all, _, err := Filter(tb, expr.TruePred{}, nil, ExecOptions{Parallelism: 4, MorselRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if all != nil {
		t.Fatalf("TRUE predicate: want nil selection, got %d rows", len(all))
	}
}

// TestPreparePredSharesMaterialisation checks the rewritten predicate
// filters identically to the original and that float64 column refs are
// left untouched (they already evaluate to shared storage).
func TestPreparePredSharesMaterialisation(t *testing.T) {
	tb := gridTable(t, 10_000)
	pred := expr.And{
		L: expr.Not{P: expr.Cmp{Op: vec.Le, Left: expr.ColRef{Name: "g"}, Right: 2}},
		R: expr.Between{
			Expr: expr.Arith{Op: expr.Mul, L: expr.ColRef{Name: "x"}, R: expr.Const{V: 2}},
			Lo:   0.5, Hi: 1.5,
		},
	}
	prepared, err := preparePred(tb, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := seqFilter(t, tb, pred)
	got := seqFilter(t, tb, prepared)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("prepared predicate diverges: %d vs %d rows", len(want), len(got))
	}
	f64ref, err := prepareScalar(tb, expr.ColRef{Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f64ref.(expr.ColRef); !ok {
		t.Fatalf("float64 ColRef rewritten to %T, want untouched", f64ref)
	}
	intRef, err := prepareScalar(tb, expr.ColRef{Name: "g"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := intRef.(expr.Materialized); !ok {
		t.Fatalf("int64 ColRef prepared to %T, want Materialized", intRef)
	}
}

// TestParallelFilterPropagatesErrors checks the deterministic
// first-morsel-in-order error reporting of the worker pool.
func TestParallelFilterPropagatesErrors(t *testing.T) {
	tb := gridTable(t, 30_000)
	bad := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "nope"}, Right: 1}
	if _, _, err := Filter(tb, bad, nil, ExecOptions{Parallelism: 4, MorselRows: 1000}); err == nil {
		t.Fatal("want error for unknown column, got nil")
	}
	q := Query{Table: "grid", Where: bad, Aggs: []AggSpec{{Func: Count}}}
	if _, err := RunOnOpts(tb, q, ExecOptions{Parallelism: 4, MorselRows: 1000}); err == nil {
		t.Fatal("want error for unknown column, got nil")
	}
}

// TestExecOptionsDefaults pins the option resolution rules.
func TestExecOptionsDefaults(t *testing.T) {
	var o ExecOptions
	if w := o.workers(); w < 1 {
		t.Fatalf("default workers = %d, want >= 1", w)
	}
	if mr := o.morselRows(); mr != DefaultMorselRows {
		t.Fatalf("default morsel rows = %d, want %d", mr, DefaultMorselRows)
	}
	o = ExecOptions{Parallelism: 3, MorselRows: 128}
	if o.workers() != 3 || o.morselRows() != 128 {
		t.Fatalf("explicit options not honoured: %+v", o)
	}
	if got := o.morselCount(1000); got != 8 {
		t.Fatalf("morselCount(1000) = %d, want 8", got)
	}
	if got := o.morselCount(0); got != 0 {
		t.Fatalf("morselCount(0) = %d, want 0", got)
	}
}
