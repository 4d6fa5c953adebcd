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

// randPositions returns a sorted random subset of [0, n).
func randPositions(rng *rand.Rand, n int, p float64) vec.Sel {
	out := make(vec.Sel, 0, int(float64(n)*p)+1)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			out = append(out, int32(i))
		}
	}
	return out
}

// intersectSorted returns a ∩ b for sorted selections.
func intersectSorted(a, b vec.Sel) vec.Sel {
	out := make(vec.Sel, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// selScanTable builds n rows with a clustered x column (x = row index)
// and an unordered v column.
func selScanTable(t testing.TB, n int) *table.Table {
	t.Helper()
	xs := make([]float64, n)
	vs := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i)
		vs[i] = float64(i%1009) / 1009
	}
	tb := table.MustNew("selscan", table.Schema{
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

// TestFilterSelMatchesFilterIntersection asserts, over random position
// densities, predicates, morsel granules and worker counts, that a
// selection scan returns exactly (full scan) ∩ positions, bit-identical
// at every parallelism level.
func TestFilterSelMatchesFilterIntersection(t *testing.T) {
	const n = 40_000
	tb := selScanTable(t, n)
	rng := rand.New(rand.NewSource(23))
	preds := []expr.Predicate{
		expr.TruePred{},
		expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "v"}, Right: 0.25},
		expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 5000, Hi: 9000},
		expr.And{
			L: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 1000, Hi: 30_000},
			R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "v"}, Right: 0.5},
		},
		expr.Not{P: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "v"}, Right: 0.1}},
	}
	densities := []float64{0, 0.001, 0.2, 0.7, 1}
	for pi, pred := range preds {
		want, _, err := Filter(tb, pred, nil, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = vec.NewSelAll(n)
		}
		for _, d := range densities {
			positions := randPositions(rng, n, d)
			expect := intersectSorted(want, positions)
			for _, workers := range []int{1, 4} {
				for _, mr := range []int{0, 1024} {
					got, stats, err := Filter(tb, pred, positions, ExecOptions{Parallelism: workers, MorselRows: mr})
					if err != nil {
						t.Fatalf("pred %d density %g workers %d: %v", pi, d, workers, err)
					}
					if len(got) != len(expect) {
						t.Fatalf("pred %d density %g workers %d mr %d: got %d rows, want %d",
							pi, d, workers, mr, len(got), len(expect))
					}
					for k := range got {
						if got[k] != expect[k] {
							t.Fatalf("pred %d density %g workers %d: row %d = %d, want %d",
								pi, d, workers, k, got[k], expect[k])
						}
					}
					if scanned := stats.ScannedRows + stats.SkippedRows; scanned != len(positions) {
						t.Fatalf("pred %d: stats cover %d positions, want %d", pi, scanned, len(positions))
					}
				}
			}
		}
	}
}

// TestFilterSelZonePruning checks that a range predicate confined to a
// slice of clustered data skips the granules no sampled position can
// match in, that the pruned result matches the unprunable control, and
// that EstimateScanRows predicts exactly what the scan then does.
func TestFilterSelZonePruning(t *testing.T) {
	const granules = 4
	n := granules * column.ZoneRows
	tb := selScanTable(t, n)
	rng := rand.New(rand.NewSource(5))
	positions := randPositions(rng, n, 0.1)
	pred := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 70_000, Hi: 90_000}
	opts := ExecOptions{Parallelism: 2}

	got, stats, err := Filter(tb, pred, positions, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedMorsels == 0 || stats.SkippedRows == 0 {
		t.Fatalf("no pruning on clustered data: %+v", stats)
	}
	control, _, err := Filter(tb, unboundable(pred), positions, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(control) {
		t.Fatalf("pruned scan returned %d rows, control %d", len(got), len(control))
	}
	for i := range got {
		if got[i] != control[i] {
			t.Fatalf("row %d: pruned %d, control %d", i, got[i], control[i])
		}
	}
	if est := EstimateScanRows(tb, pred, positions, opts); est != stats.ScannedRows {
		t.Fatalf("EstimateScanRows = %d, scan evaluated %d", est, stats.ScannedRows)
	}
	if est := EstimateScanRows(tb, expr.TruePred{}, positions, opts); est != len(positions) {
		t.Fatalf("EstimateScanRows(TRUE) = %d, want %d", est, len(positions))
	}
}

// TestFilterSelContractErrors asserts the position-vector contract is
// enforced deterministically.
func TestFilterSelContractErrors(t *testing.T) {
	tb := selScanTable(t, 128)
	opts := DefaultExecOptions()
	pred := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "v"}, Right: 0.5}
	if _, _, err := Filter(tb, pred, vec.Sel{5, 3}, opts); err == nil {
		t.Error("unsorted positions accepted")
	}
	if _, _, err := Filter(tb, pred, vec.Sel{5, 5, 7}, opts); err == nil {
		t.Error("duplicate positions accepted (the gapless-run range path would leak unsampled rows)")
	}
	if _, _, err := Filter(tb, pred, vec.Sel{5, 400}, opts); err == nil {
		t.Error("out-of-range position accepted")
	}
	if _, _, err := Filter(tb, pred, vec.Sel{-1, 5}, opts); err == nil {
		t.Error("negative position accepted")
	}
	bad := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "missing"}, Right: 0}
	if _, _, err := Filter(tb, bad, vec.Sel{1, 2}, opts); err == nil {
		t.Error("bad column reference accepted")
	}
}

// runOnSel evaluates q over the rows of t listed in positions the way a
// bounded projection does: Filter, then the prefiltered executor.
func runOnSel(t *table.Table, positions vec.Sel, q Query, opts ExecOptions) (*Result, error) {
	sel, scan, err := Filter(t, q.Pred(), positions, opts)
	if err != nil {
		return nil, err
	}
	return RunOnFilteredOpts(t, sel, q, scan, opts)
}

// TestRunOnSelAggregatesAndProjection cross-checks selection-restricted
// execution (Filter → RunOnFilteredOpts) against RunOnOpts over the
// materialised subset: aggregates, grouped aggregates and ordered
// projections over (positions ∧ predicate) must equal the same query on
// a standalone table holding exactly the selected rows.
func TestRunOnSelAggregatesAndProjection(t *testing.T) {
	const n = 10_000
	xs := make([]float64, n)
	vs := make([]float64, n)
	gs := make([]int64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i)
		vs[i] = float64((i*31)%997) / 997
		gs[i] = int64(i % 7)
	}
	tb := table.MustNew("base", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "v", Type: column.Float64},
		{Name: "g", Type: column.Int64},
	})
	if err := tb.AppendColumns([]column.Column{
		column.NewFloat64From("x", xs),
		column.NewFloat64From("v", vs),
		column.NewInt64From("g", gs),
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	positions := randPositions(rng, n, 0.3)
	sample, err := tb.Project("sample", tb.Schema().Names(), positions)
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "v"}, Right: 0.4}

	aggQ := Query{Table: "base", Where: pred, Aggs: []AggSpec{
		{Func: Count}, {Func: Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"},
		{Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "a"},
	}}
	wantAgg, err := RunOnOpts(sample, aggQ, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := runOnSel(tb, positions, aggQ, ExecOptions{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"COUNT(*)", "s", "a"} {
			g, err := got.Scalar(name)
			if err != nil {
				t.Fatal(err)
			}
			w, err := wantAgg.Scalar(name)
			if err != nil {
				t.Fatal(err)
			}
			if g != w {
				t.Errorf("workers %d: %s = %v, want %v", workers, name, g, w)
			}
		}
	}

	grpQ := Query{Table: "base", Where: pred, GroupBy: "g", Aggs: []AggSpec{
		{Func: Count}, {Func: Avg, Arg: expr.ColRef{Name: "v"}, Alias: "a"},
	}}
	wantGrp, err := RunOnOpts(sample, grpQ, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotGrp, err := runOnSel(tb, positions, grpQ, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gotGrp.Len() != wantGrp.Len() {
		t.Fatalf("grouped: %d groups, want %d", gotGrp.Len(), wantGrp.Len())
	}
	for i := 0; i < wantGrp.Len(); i++ {
		g := gotGrp.Table.RowStrings(int32(i))
		w := wantGrp.Table.RowStrings(int32(i))
		for k := range g {
			if g[k] != w[k] {
				t.Errorf("grouped row %d col %d: %q, want %q", i, k, g[k], w[k])
			}
		}
	}

	projQ := Query{Table: "base", Where: pred, Select: []string{"x"}, OrderBy: "x", Desc: true, Limit: 25}
	wantProj, err := RunOnOpts(sample, projQ, ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	gotProj, err := runOnSel(tb, positions, projQ, ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := wantProj.Float64Col("x")
	if err != nil {
		t.Fatal(err)
	}
	gg, err := gotProj.Float64Col("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(gg) != len(gw) {
		t.Fatalf("projection: %d rows, want %d", len(gg), len(gw))
	}
	for i := range gg {
		if gg[i] != gw[i] {
			t.Errorf("projection row %d: %v, want %v", i, gg[i], gw[i])
		}
	}
}

// partitionSelLinear is the reference partition: one integer division
// per position, a new part whenever the granule changes.
func partitionSelLinear(positions vec.Sel, n int, opts ExecOptions) []part {
	if len(positions) == 0 {
		return nil
	}
	mr := opts.morselRows()
	var parts []part
	start := 0
	g := int(positions[0]) / mr
	for i := 1; i < len(positions); i++ {
		if gi := int(positions[i]) / mr; gi != g {
			parts = append(parts, part{m: g, lo: g * mr, hi: min(g*mr+mr, n), pos: positions[start:i]})
			start, g = i, gi
		}
	}
	return append(parts, part{m: g, lo: g * mr, hi: min(g*mr+mr, n), pos: positions[start:]})
}

// TestPartitionSelMatchesLinearWalk: the binary-search partition equals
// the per-position walk for tiny, odd and default granules, empty and
// single-position inputs, positions on granule boundaries and a short
// last granule.
func TestPartitionSelMatchesLinearWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mr := range []int{1, 7, 64 * 1024} {
		opts := ExecOptions{MorselRows: mr}
		for _, n := range []int{1, 2, mr, mr + 1, 3*mr - 2, 200_003} {
			inputs := []vec.Sel{
				{},
				{0},
				{int32(n - 1)},
				randPositions(rng, n, 0.01),
				randPositions(rng, n, 0.5),
				vec.NewSelAll(n),
			}
			var edges vec.Sel // every granule's first and last row
			for lo := 0; lo < n; lo += mr {
				edges = append(edges, int32(lo))
				if hi := min(lo+mr, n) - 1; hi > lo {
					edges = append(edges, int32(hi))
				}
			}
			inputs = append(inputs, edges)
			for _, pos := range inputs {
				got, want := partitionSel(pos, n, opts), partitionSelLinear(pos, n, opts)
				if len(got) != len(want) {
					t.Fatalf("mr=%d n=%d |pos|=%d: %d parts, want %d", mr, n, len(pos), len(got), len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("mr=%d n=%d |pos|=%d: parts %+v, want %+v", mr, n, len(pos), got, want)
				}
			}
		}
	}
}

// TestConeZonePruningIsConservative: a row whose computed separation
// equals the radius exactly lies one ulp beyond Dec0 + Radius. Alone in
// its zone granule, it must not be pruned: COUNT(*) through the pruned
// scan equals the reference loop over AngularSeparation.
func TestConeZonePruningIsConservative(t *testing.T) {
	cone := expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: -2.308673878296645, Radius: 4.000548634482486}
	const edgeDec = 1.6918747561858416
	if d := expr.AngularSeparation(cone.Ra0, cone.Dec0, cone.Ra0, edgeDec); d != cone.Radius {
		t.Fatalf("fixture: edge row separation %v, want exactly %v", d, cone.Radius)
	}
	n := column.ZoneRows + 1 // granule 0 far from the cone, granule 1 the edge row alone
	ra, dec := make([]float64, n), make([]float64, n)
	for i := range ra {
		ra[i], dec[i] = cone.Ra0+180, 60
	}
	ra[n-1], dec[n-1] = cone.Ra0, edgeDec
	tb := table.MustNew("sky", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
	})
	if err := tb.AppendColumns([]column.Column{
		column.NewFloat64From("ra", ra),
		column.NewFloat64From("dec", dec),
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range ra {
		if expr.AngularSeparation(cone.Ra0, cone.Dec0, ra[i], dec[i]) <= cone.Radius {
			want++
		}
	}
	q := Query{Table: "sky", Where: cone, Aggs: []AggSpec{{Func: Count}}}
	for _, mr := range []int{1024, column.ZoneRows} {
		res, err := RunOnOpts(tb, q, ExecOptions{MorselRows: mr})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(res.States[0].Moments.N()); got != want {
			t.Fatalf("MorselRows=%d: COUNT(*) = %d, reference %d", mr, got, want)
		}
	}
}
