package engine

import (
	"fmt"
	"math"
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
	scan := ScanStats{ScannedRows: n}
	if q.OrderBy == "" && q.Limit == 0 {
		return &Result{Table: out, ScannedRows: n, Stats: scan}
	}
	q.Select = []string{"*"} // order by an aggregate output
	res, err := project(out, nil, q, scan)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// spanTable holds the key shapes that steer Grouping.IDs between its
// memo and hash branches, at morselRows-row morsels (the last one
// shorter): BIGINT keys whose span over each morsel is rows−1
// ("span_lt"), rows ("span_eq") and rows+1 ("span_gt") — negative,
// scrambled, and overlapping across morsels; a column holding
// math.MinInt64 and math.MaxInt64 in its first morsel and keys just
// above MinInt64 in its second ("extreme"); and a VARCHAR column whose
// dictionary is larger than a morsel ("bigdict").
func spanTable(t *testing.T, n, morselRows int) *table.Table {
	t.Helper()
	tb := table.MustNew("span", table.Schema{
		{Name: "id", Type: column.Int64},
		{Name: "x", Type: column.Float64},
		{Name: "v", Type: column.Float64},
		{Name: "span_lt", Type: column.Int64},
		{Name: "span_eq", Type: column.Int64},
		{Name: "span_gt", Type: column.Int64},
		{Name: "extreme", Type: column.Int64},
		{Name: "bigdict", Type: column.String},
	})
	ids, xs, vs := make([]int64, n), make([]float64, n), make([]float64, n)
	spans := [3][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	extreme := make([]int64, n)
	bigdict := column.NewString("bigdict")
	state := uint64(0x2545F4914F6CDD1D)
	for lo := 0; lo < n; lo += morselRows {
		rows := min(morselRows, n-lo)
		base := int64(lo/morselRows)*1000 - 3000
		for j := 0; j < rows; j++ {
			i := lo + j
			state = state*6364136223846793005 + 1442695040888963407
			ids[i] = int64(i)
			xs[i] = float64(state%1_000_003) / 1_000_003
			vs[i] = float64(int64(state>>20)%2001-1000) / 7
			// A permutation of the morsel's rows (7919 is coprime with
			// every morsel length used), mapped onto [0, span]: the
			// first row of the permutation takes the minimum, the last
			// the maximum.
			k := int64(j * 7919 % rows)
			for s, span := range []int64{int64(rows) - 1, int64(rows), int64(rows) + 1} {
				spans[s][i] = base + k*span/max(int64(rows)-1, 1)
			}
			extreme[i] = int64(state>>58) - 32
			bigdict.Append(fmt.Sprintf("w%05d", state%(uint64(morselRows)+904)))
		}
	}
	extreme[1], extreme[3], extreme[5] = math.MinInt64, math.MaxInt64, math.MinInt64
	extreme[morselRows+2], extreme[morselRows+4] = math.MinInt64, math.MinInt64+5
	if err := tb.AppendColumns([]column.Column{
		column.NewInt64From("id", ids),
		column.NewFloat64From("x", xs),
		column.NewFloat64From("v", vs),
		column.NewInt64From("span_lt", spans[0]),
		column.NewInt64From("span_eq", spans[1]),
		column.NewInt64From("span_gt", spans[2]),
		column.NewInt64From("extreme", extreme),
		bigdict,
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestHashGroupByMatchesMapReference is the hash-path property grid:
// BIGINT and VARCHAR group keys, filtered and unfiltered, single- and
// many-group shapes, key spans on both sides of a morsel's row count
// (the memo and hash branches of Grouping.IDs), int64's extremes, a
// dictionary larger than a morsel and scanned parts with empty
// selections, against the map-based reference at workers 1/2/4/8 —
// through both the base scan and the fold over a precomputed selection.
func TestHashGroupByMatchesMapReference(t *testing.T) {
	tb := gridTable(t, 50_000)
	const morselRows = 4096
	span := spanTable(t, 50_000, morselRows)
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
	ends := expr.Not{P: expr.Between{Expr: expr.ColRef{Name: "id"}, Lo: 100, Hi: 49_900}}
	for _, key := range []string{"span_lt", "span_eq", "span_gt", "extreme", "bigdict"} {
		queries[key+"_unfiltered"] = Query{Table: "span", GroupBy: key, Aggs: aggs}
		queries[key+"_filtered"] = Query{Table: "span", GroupBy: key, Aggs: aggs,
			Where: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 0.65}}
		// Only the first and last morsels select rows; the rest are
		// scanned (NOT has no zone-map bounds) into empty selections.
		queries[key+"_empty_parts"] = Query{Table: "span", GroupBy: key, Aggs: aggs, Where: ends}
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			src := tb
			if q.Table == "span" {
				src = span
			}
			want := mapGroupByReference(t, src, q, morselRows)
			for _, workers := range []int{1, 2, 4, 8} {
				opts := ExecOptions{Parallelism: workers, MorselRows: morselRows}
				got, err := RunOnOpts(src, q, opts)
				if err != nil {
					t.Fatal(err)
				}
				got.ScannedRows = want.ScannedRows // reference does not zone-prune
				sameResult(t, want, got)
				sel, scan, err := Filter(src, q.Pred(), nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err = RunOnFilteredOpts(src, sel, q, scan, opts)
				if err != nil {
					t.Fatal(err)
				}
				got.ScannedRows = want.ScannedRows
				sameResult(t, want, got)
			}
		})
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestGroupFoldZeroAlloc: the steady-state grouped fold of one part —
// group ids (memo and hash branches, BIGINT and VARCHAR keys), COUNT(*)
// and AVG over a ~65 % selection — allocates nothing on pooled scratch
// once the pools are warm.
func TestGroupFoldZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = 4096
	tb := gridTable(t, n)
	sel, err := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 0.65}.FilterRange(tb, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	sel = append(vec.Sel(nil), sel...)
	vs, err := tb.Float64("v")
	if err != nil {
		t.Fatal(err)
	}
	args := [][]float64{nil, vs}
	for _, key := range []string{"g", "id", "cat"} {
		grp, err := GroupingFor(tb, key)
		if err != nil {
			t.Fatal(err)
		}
		run := func() { foldGroups(&grp, args, sel).release() }
		run() // warm the pools
		if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
			t.Fatalf("GROUP BY %s: steady-state fold allocates %.1f objects/op, want 0", key, allocs)
		}
	}
}
