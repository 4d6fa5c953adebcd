package engine

import (
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// clusteredTable builds granules*column.ZoneRows rows whose x column is
// sorted (x = row index) and whose v column is unordered — the shape
// zone maps are built for: time- or position-clustered science data.
func clusteredTable(t testing.TB, granules int) *table.Table {
	t.Helper()
	n := granules * column.ZoneRows
	xs := make([]float64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i)
		vs[i] = float64(i%1009) / 1009
	}
	tb := table.MustNew("clustered", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "v", Type: column.Float64},
	})
	if err := tb.AppendColumns([]column.Column{
		column.NewFloat64From("x", xs),
		column.NewFloat64From("v", vs),
	}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// unboundable wraps a predicate so it reports no Bounds (a double
// negation filters identically but defeats pruning) — the control arm
// of the pruning experiments.
func unboundable(p expr.Predicate) expr.Predicate {
	return expr.Not{P: expr.Not{P: p}}
}

// TestZoneMapPruningSkipsMorsels checks that a predicate confined to
// one granule of clustered data skips the other morsels entirely, that
// the pruned result is bit-identical to the unpruned control, and that
// EstimateScanRows predicts exactly what the scan then does.
func TestZoneMapPruningSkipsMorsels(t *testing.T) {
	const granules = 4
	tb := clusteredTable(t, granules)
	lo, hi := 10_000.0, 20_000.0
	pred := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: lo, Hi: hi}
	q := Query{Table: "clustered", Where: pred,
		Aggs: []AggSpec{{Func: Count}, {Func: Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"}}}
	control := q
	control.Where = unboundable(pred)

	for _, workers := range []int{1, 4} {
		opts := ExecOptions{Parallelism: workers}
		res, err := RunOnOpts(tb, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Morsels != granules {
			t.Fatalf("workers=%d: %d morsels, want %d", workers, res.Stats.Morsels, granules)
		}
		if res.Stats.SkippedMorsels != granules-1 {
			t.Errorf("workers=%d: skipped %d morsels, want %d", workers, res.Stats.SkippedMorsels, granules-1)
		}
		if res.ScannedRows != column.ZoneRows {
			t.Errorf("workers=%d: scanned %d rows, want %d", workers, res.ScannedRows, column.ZoneRows)
		}
		if got := EstimateScanRows(tb, pred, nil, opts); got != res.ScannedRows {
			t.Errorf("workers=%d: EstimateScanRows = %d, scan did %d", workers, got, res.ScannedRows)
		}
		ctl, err := RunOnOpts(tb, control, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ctl.Stats.SkippedMorsels != 0 {
			t.Fatalf("control was pruned: %+v", ctl.Stats)
		}
		for _, name := range []string{"COUNT(*)", "s"} {
			pv, err := res.Scalar(name)
			if err != nil {
				t.Fatal(err)
			}
			cv, err := ctl.Scalar(name)
			if err != nil {
				t.Fatal(err)
			}
			if pv != cv {
				t.Errorf("workers=%d %s: pruned %v != control %v", workers, name, pv, cv)
			}
		}
	}
}

// TestZoneMapPruningPredicateShapes checks pruning through Cmp, And,
// Or, and the projection/raw-filter paths, always against an
// equivalent unpruned control.
func TestZoneMapPruningPredicateShapes(t *testing.T) {
	tb := clusteredTable(t, 3)
	n := tb.Len()
	opts := ExecOptions{Parallelism: 2}
	preds := []expr.Predicate{
		expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 1000},
		expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "x"}, Right: float64(n - 1000)},
		expr.And{
			L: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 5000, Hi: 6000},
			R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "v"}, Right: 0.5},
		},
		expr.Or{
			L: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0, Hi: 100},
			R: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 2000, Hi: 2100},
		},
	}
	for _, pred := range preds {
		want, _, err := Filter(tb, unboundable(pred), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Filter(tb, pred, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Errorf("%s: pruned %d rows != control %d rows", pred, len(got), len(want))
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s: selection diverges at %d: %d != %d", pred, i, got[i], want[i])
				break
			}
		}
		if est := EstimateScanRows(tb, pred, nil, opts); est >= n {
			t.Errorf("%s: EstimateScanRows = %d, expected pruning below %d", pred, est, n)
		}
	}
}

// TestPruningStillReportsBadReferences pins that a malformed predicate
// errors even when zone maps prune every morsel before evaluation —
// error reporting must not depend on the stored values.
func TestPruningStillReportsBadReferences(t *testing.T) {
	tb := clusteredTable(t, 2)
	// The x-bound is disjoint from the data, so every morsel prunes;
	// the bogus column reference must still surface.
	disjoint := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 1e12, Hi: 2e12}
	bad := []expr.Predicate{
		expr.And{L: disjoint, R: expr.Cmp{Op: vec.Eq, Left: expr.ColRef{Name: "nope"}, Right: 1}},
		expr.And{L: disjoint, R: expr.StrEq{Col: "nope", Value: "x"}},
		expr.And{L: disjoint, R: expr.Cone{RaCol: "nope", DecCol: "x", Radius: 1}},
	}
	for _, pred := range bad {
		for _, workers := range []int{1, 4} {
			q := Query{Table: "clustered", Where: pred, Aggs: []AggSpec{{Func: Count}}}
			if _, err := RunOnOpts(tb, q, ExecOptions{Parallelism: workers}); err == nil {
				t.Errorf("workers=%d %s: pruned scan swallowed the bad reference", workers, pred)
			}
			if _, _, err := Filter(tb, pred, nil, ExecOptions{Parallelism: workers}); err == nil {
				t.Errorf("workers=%d %s: pruned filter swallowed the bad reference", workers, pred)
			}
		}
		// Single-morsel path too (table fits one morsel).
		if _, _, err := Filter(tb, pred, nil, ExecOptions{MorselRows: 1 << 30}); err == nil {
			t.Errorf("%s: single-morsel pruned filter swallowed the bad reference", pred)
		}
	}
}

// TestEstimateScanRowsUnprunable pins the no-bounds and TRUE cases.
func TestEstimateScanRowsUnprunable(t *testing.T) {
	tb := clusteredTable(t, 2)
	opts := ExecOptions{}
	if got := EstimateScanRows(tb, expr.TruePred{}, nil, opts); got != tb.Len() {
		t.Fatalf("TRUE: %d, want %d", got, tb.Len())
	}
	noBounds := expr.StrEq{Col: "kind", Value: "x"}
	if got := EstimateScanRows(tb, noBounds, nil, opts); got != tb.Len() {
		t.Fatalf("no-bounds: %d, want %d", got, tb.Len())
	}
	// A predicate overlapping every granule prunes nothing.
	wide := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0, Hi: float64(tb.Len())}
	if got := EstimateScanRows(tb, wide, nil, opts); got != tb.Len() {
		t.Fatalf("wide: %d, want %d", got, tb.Len())
	}
}
