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
		sel, err := q.Pred().FilterRange(tb, lo, hi)
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
	res, err := orderGrouped(out, q, ScanStats{ScannedRows: n})
	if err != nil {
		t.Fatal(err)
	}
	return res
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
