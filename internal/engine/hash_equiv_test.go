package engine

import (
	"fmt"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// mapGroupByReference replicates the pre-hashtab map-based GROUP BY:
// per-morsel map[string][]stats.Moments partials with string keys built
// per row, merged in ascending morsel order with first-seen group
// ordering. The hashtab path must stay bit-identical to it — same group
// order, same floating-point merge sequence — at every worker count.
func mapGroupByReference(t *testing.T, tb *table.Table, q Query, morselRows int) *Result {
	t.Helper()
	n := tb.Len()
	col, err := tb.Col(q.GroupBy)
	if err != nil {
		t.Fatal(err)
	}
	var key func(i int32) string
	switch c := col.(type) {
	case *column.Int64Col:
		key = func(i int32) string { return fmt.Sprintf("%d", c.Data[i]) }
	case *column.StringCol:
		key = func(i int32) string { return c.Value(i) }
	default:
		t.Fatalf("unsupported group column type %s", col.Type())
	}
	args := make([][]float64, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Arg == nil {
			continue
		}
		vals, err := a.Arg.EvalF64(tb)
		if err != nil {
			t.Fatal(err)
		}
		args[i] = vals
	}
	type partial struct {
		groups map[string][]stats.Moments
		order  []string
	}
	var partials []partial
	for lo := 0; lo < n; lo += morselRows {
		hi := min(lo+morselRows, n)
		sel, err := q.Pred().Filter(tb, vec.NewSelRange(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		p := partial{groups: make(map[string][]stats.Moments)}
		for _, row := range sel {
			k := key(row)
			ms, ok := p.groups[k]
			if !ok {
				ms = make([]stats.Moments, len(q.Aggs))
				p.order = append(p.order, k)
			}
			for i := range q.Aggs {
				if args[i] == nil {
					ms[i].Observe(1)
				} else {
					ms[i].Observe(args[i][row])
				}
			}
			p.groups[k] = ms
		}
		partials = append(partials, p)
	}
	groups := make(map[string][]stats.Moments)
	var order []string
	for _, p := range partials {
		for _, k := range p.order {
			ms, ok := groups[k]
			if !ok {
				groups[k] = p.groups[k]
				order = append(order, k)
				continue
			}
			for i := range ms {
				ms[i].Merge(p.groups[k][i])
			}
		}
	}
	schema := make(table.Schema, 0, len(q.Aggs)+1)
	schema = append(schema, table.ColumnDef{Name: q.GroupBy, Type: column.String})
	for _, a := range q.Aggs {
		schema = append(schema, table.ColumnDef{Name: a.Name(), Type: column.Float64})
	}
	out, err := table.New("result("+q.Table+")", schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range order {
		row := make(table.Row, 0, len(q.Aggs)+1)
		row = append(row, k)
		for i, a := range q.Aggs {
			st := AggState{Spec: a, Moments: groups[k][i]}
			row = append(row, st.Value())
		}
		if err := out.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	res := &Result{Table: out, ScannedRows: n}
	sorted, err := sortGroupedResult(res, q)
	if err != nil {
		t.Fatal(err)
	}
	return sorted
}

// TestHashGroupByMatchesMapReference is the hash-path property grid:
// BIGINT and VARCHAR group keys, filtered and unfiltered, single- and
// many-group shapes, against the map-based reference at workers
// 1/2/4/8.
func TestHashGroupByMatchesMapReference(t *testing.T) {
	tb := gridTable(t, 50_000)
	const morselRows = 4096
	aggs := []AggSpec{
		{Func: Count},
		{Func: Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"},
		{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "m"},
		{Func: StdDev, Arg: expr.ColRef{Name: "v"}, Alias: "sd"},
	}
	queries := map[string]Query{
		"bigint_unfiltered": {Table: "grid", GroupBy: "g", Aggs: aggs},
		"bigint_filtered": {
			Table: "grid", GroupBy: "g", Aggs: aggs,
			Where: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.3, Hi: 0.6},
		},
		"bigint_sparse_filter": {
			// ~0.1% selectivity: most morsels contribute no groups.
			Table: "grid", GroupBy: "g", Aggs: aggs,
			Where: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.5, Hi: 0.501},
		},
		"bigint_empty_filter": {
			// Nothing matches: the grouped result must be empty.
			Table: "grid", GroupBy: "g", Aggs: aggs,
			Where: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "x"}, Right: 2},
		},
		"bigint_highcard": {
			// id is unique per row: every selected row is its own group.
			Table: "grid", GroupBy: "id", Aggs: aggs[:2],
			Where: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.1, Hi: 0.12},
		},
		"varchar_unfiltered": {Table: "grid", GroupBy: "cat", Aggs: aggs},
		"varchar_filtered": {
			Table: "grid", GroupBy: "cat", Aggs: aggs,
			Where: expr.Or{
				L: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 0.2},
				R: expr.StrEq{Col: "cat", Value: "QSO"},
			},
		},
		"varchar_ordered_limit": {
			Table: "grid", GroupBy: "cat", Aggs: aggs,
			OrderBy: "m", Desc: true, Limit: 2,
		},
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			want := mapGroupByReference(t, tb, q, morselRows)
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := RunOnOpts(tb, q, ExecOptions{Parallelism: workers, MorselRows: morselRows})
				if err != nil {
					t.Fatal(err)
				}
				got.ScannedRows = want.ScannedRows // reference does not zone-prune
				sameResult(t, want, got)
			}
		})
	}
}

// mapJoinReference replicates the pre-hashtab map-based join:
// map[int64][]int32 build with per-key appends, sequential probe in
// left-row order.
func mapJoinReference(t *testing.T, left, right *table.Table, leftKey, rightKey string) (lsel, rsel vec.Sel) {
	t.Helper()
	lk, err := left.Int64(leftKey)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := right.Int64(rightKey)
	if err != nil {
		t.Fatal(err)
	}
	build := make(map[int64][]int32, len(rk))
	for i, k := range rk {
		build[k] = append(build[k], int32(i))
	}
	for i := range lk {
		for _, rrow := range build[lk[i]] {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, rrow)
		}
	}
	return lsel, rsel
}

// joinCase builds one left/right table pair for the join grid.
func joinCase(t *testing.T, leftKeys, rightKeys []int64) (*table.Table, *table.Table) {
	t.Helper()
	left := table.MustNew("fact", table.Schema{
		{Name: "k", Type: column.Int64},
		{Name: "lv", Type: column.Float64},
	})
	lv := make([]float64, len(leftKeys))
	for i := range lv {
		lv[i] = float64(i) / 3
	}
	if err := left.AppendColumns([]column.Column{
		column.NewInt64From("k", leftKeys),
		column.NewFloat64From("lv", lv),
	}); err != nil {
		t.Fatal(err)
	}
	right := table.MustNew("dim", table.Schema{
		{Name: "k", Type: column.Int64},
		{Name: "rv", Type: column.Float64},
	})
	rv := make([]float64, len(rightKeys))
	for i := range rv {
		rv[i] = float64(i) * 7
	}
	if err := right.AppendColumns([]column.Column{
		column.NewInt64From("k", rightKeys),
		column.NewFloat64From("rv", rv),
	}); err != nil {
		t.Fatal(err)
	}
	return left, right
}

// seq returns n sequential keys modulo mod.
func seqKeys(n int, mod int64) []int64 {
	out := make([]int64, n)
	state := uint64(0x2545F4914F6CDD1D)
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = int64(state) % mod
		if out[i] < 0 {
			out[i] = -out[i]
		}
	}
	return out
}

// TestHashJoinMatchesMapReference is the join property grid:
// duplicate-heavy and unique build keys, zero-match, all-match, and
// empty-side joins, against the map-based reference at workers 1/2/4/8.
func TestHashJoinMatchesMapReference(t *testing.T) {
	cases := map[string]struct {
		leftKeys, rightKeys []int64
	}{
		"unique_build":    {seqKeys(5000, 64), []int64{0, 1, 2, 3, 10, 63}},
		"duplicate_heavy": {seqKeys(5000, 16), append(seqKeys(300, 16), seqKeys(50, 8)...)},
		"all_match":       {seqKeys(5000, 8), []int64{0, 1, 2, 3, 4, 5, 6, 7}},
		"zero_match":      {seqKeys(5000, 8), []int64{100, 200, 300}},
		"empty_build":     {seqKeys(5000, 8), nil},
		"empty_probe":     {nil, []int64{1, 2, 3}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			left, right := joinCase(t, c.leftKeys, c.rightKeys)
			wantL, wantR := mapJoinReference(t, left, right, "k", "k")
			lv, err := left.Float64("lv")
			if err != nil {
				t.Fatal(err)
			}
			rv, err := right.Float64("rv")
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				joined, err := HashJoin(left, right, "k", "k", ExecOptions{Parallelism: workers, MorselRows: 512})
				if err != nil {
					t.Fatal(err)
				}
				if joined.Len() != len(wantL) {
					t.Fatalf("workers=%d: joined %d rows, want %d", workers, joined.Len(), len(wantL))
				}
				gotLV, err := joined.Float64("lv")
				if err != nil {
					t.Fatal(err)
				}
				gotRV, err := joined.Float64("dim.rv")
				if err != nil {
					// No name clash in this schema: rv keeps its name.
					gotRV, err = joined.Float64("rv")
					if err != nil {
						t.Fatal(err)
					}
				}
				for i := range wantL {
					if gotLV[i] != lv[wantL[i]] || gotRV[i] != rv[wantR[i]] {
						t.Fatalf("workers=%d row %d: got (%g,%g), want (%g,%g)",
							workers, i, gotLV[i], gotRV[i], lv[wantL[i]], rv[wantR[i]])
					}
				}
			}
		})
	}
}
