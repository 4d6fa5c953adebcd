package impression

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

const narrowRows = 6400

// narrowBase builds a table whose indexed column x holds what an index
// can lose: NaN, ±Inf, duplicates (a quarter-step grid), a constant run,
// and the extremes 0 and 1000, so the full-table layer's buckets are 5
// wide and grid values land exactly on their edges. dec is on the sphere
// except for NaN and ±Inf; c is constant; s is a string and g a group
// key.
func narrowBase(t *testing.T) *table.Table {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "y", Type: column.Float64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "c", Type: column.Float64},
		{Name: "s", Type: column.String},
		{Name: "g", Type: column.Int64},
	})
	r := xrand.New(39)
	rows := make([]table.Row, 0, narrowRows)
	for i := 0; i < narrowRows; i++ {
		x := float64(r.Intn(4001)) * 0.25
		switch {
		case i == 1:
			x = 0
		case i == 2:
			x = 1000
		case i%17 == 0:
			x = math.NaN()
		case i%19 == 0:
			x = math.Inf(1)
		case i%23 == 0:
			x = math.Inf(-1)
		case i >= 1000 && i < 1400:
			x = 500
		}
		dec := -90 + r.Float64()*180
		switch i % 31 {
		case 0:
			dec = math.NaN()
		case 1:
			dec = math.Inf(1)
		case 2:
			dec = math.Inf(-1)
		}
		s := "a"
		if i%3 == 0 {
			s = "b"
		}
		rows = append(rows, table.Row{x, r.NormFloat64(), r.Float64() * 360, dec, 7.0, s, int64(i % 5)})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

// narrowViews returns the views the narrowing tests run over: a layer
// holding every row, a uniform and a biased layer, each whole and
// clamped, and an empty view.
func narrowViews(t *testing.T, tb *table.Table) map[string]View {
	t.Helper()
	logger, err := workload.NewLogger([]workload.AttrSpec{{Name: "ra", Min: 0, Max: 360, Beta: 30}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		logger.LogQuery(expr.Between{Expr: expr.ColRef{Name: "ra"}, Lo: 100 + float64(i%20), Hi: 110 + float64(i%20)})
	}
	views := map[string]View{}
	for _, cfg := range []Config{
		{Name: "all", Size: narrowRows, Seed: 1},
		{Name: "uniform", Size: 1600, Seed: 2},
		{Name: "biased", Size: 1600, Policy: Biased, Logger: logger, Attrs: []string{"ra"}, Seed: 3},
	} {
		im, err := New(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		im.OfferRange(0, narrowRows)
		v := im.View()
		views[cfg.Name] = v
		views[cfg.Name+"/clamped"] = v.Clamp(narrowRows / 3)
		views[cfg.Name+"/clamped-empty"] = v.Clamp(0)
	}
	empty, err := New(tb, Config{Name: "empty", Size: 10})
	if err != nil {
		t.Fatal(err)
	}
	views["empty"] = empty.View()
	return views
}

// narrowPreds returns predicates of every shape over the table of
// narrowBase. Constants include grid values on the full layer's bucket
// edges, a constant run, ±Inf, NaN and an empty BETWEEN.
func narrowPreds() []expr.Predicate {
	x := expr.ColRef{Name: "x"}
	var out []expr.Predicate
	for _, c := range []float64{-1, 0, 10, 37.25, 500, 730, 999.75, 1000, 2000, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, op := range []vec.CmpOp{vec.Eq, vec.Ne, vec.Lt, vec.Le, vec.Gt, vec.Ge} {
			out = append(out, expr.Cmp{Op: op, Left: x, Right: c})
		}
	}
	for _, b := range [][2]float64{{0, 10}, {10, 20}, {495, 505}, {500, 500}, {990, 1000}, {990, math.Inf(1)},
		{math.Inf(-1), 0}, {20, 10}, {math.NaN(), 30}, {30, math.NaN()}, {123.4, 188.8}} {
		out = append(out, expr.Between{Expr: x, Lo: b[0], Hi: b[1]})
	}
	narrow := expr.Between{Expr: x, Lo: 100, Hi: 140}
	out = append(out,
		expr.And{L: narrow, R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "y"}, Right: 0}},
		expr.And{L: expr.Cmp{Op: vec.Ge, Left: x, Right: 200}, R: expr.Cmp{Op: vec.Le, Left: x, Right: 230}},
		expr.Or{L: narrow, R: expr.Between{Expr: x, Lo: 600, Hi: 620}},
		expr.Or{L: narrow, R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "y"}, Right: 1}},
		expr.Not{P: narrow},
		expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "c"}, Right: 8},
		expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "c"}, Right: 8},
		expr.StrEq{Col: "s", Value: "b"},
		expr.And{L: expr.StrEq{Col: "s", Value: "a"}, R: narrow},
	)
	for _, c := range [][3]float64{{180, 0, 10}, {30, 45, 5}, {300, -60, 12}, {10, 88, 4}, {200, -89.5, 3}, {90, 0, 0}} {
		out = append(out, expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: c[0], Dec0: c[1], Radius: c[2]})
	}
	return out
}

// sameEstimates reports whether two estimate lists are bit-identical.
func sameEstimates(a, b []estimate.Estimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Spec.Name() != y.Spec.Name() || x.Exact != y.Exact || x.SampleRows != y.SampleRows ||
			math.Float64bits(x.Interval.Estimate) != math.Float64bits(y.Interval.Estimate) ||
			math.Float64bits(x.Interval.HalfWidth) != math.Float64bits(y.Interval.HalfWidth) ||
			x.Interval.Level != y.Interval.Level {
			return false
		}
	}
	return true
}

// checkCandidates checks that cand is a strictly ascending subset of
// the view's positions holding every match.
func checkCandidates(t *testing.T, label string, v View, cand, matches vec.Sel) {
	t.Helper()
	in := make(map[int32]bool, len(v.Positions))
	for _, p := range v.Positions {
		in[p] = true
	}
	got := make(map[int32]bool, len(cand))
	for i, p := range cand {
		if i > 0 && cand[i-1] >= p {
			t.Fatalf("%s: candidates not strictly ascending at %d (%d after %d)", label, i, p, cand[i-1])
		}
		if !in[p] {
			t.Fatalf("%s: candidate %d is not a view position", label, p)
		}
		got[p] = true
	}
	for _, p := range matches {
		if !got[p] {
			t.Fatalf("%s: match %d is not a candidate (%d candidates, %d matches)", label, p, len(cand), len(matches))
		}
	}
}

// TestNarrowIsExact checks, for every view and predicate shape, that
// the narrowed candidates are an ascending superset of the matches and
// that ungrouped and grouped estimates over the narrowed scan are
// bit-identical to those over the whole view.
func TestNarrowIsExact(t *testing.T) {
	tb := narrowBase(t)
	snap := tb.Snapshot()
	opts := engine.ExecOptions{Parallelism: 2, MorselRows: 1024}
	y := expr.ColRef{Name: "y"}
	aggs := []engine.AggSpec{
		{Func: engine.Count, Alias: "n"},
		{Func: engine.Sum, Arg: y, Alias: "s"},
		{Func: engine.Avg, Arg: y, Alias: "m"},
	}
	narrowed := 0
	for name, v := range narrowViews(t, tb) {
		sl := estimate.SelLayer{Name: name, Base: snap, Positions: v.Positions, Weights: v.Weights,
			CountWeights: v.Pis, ShareSums: v.ShareSums, BaseRows: int64(snap.Len())}
		for _, pred := range narrowPreds() {
			label := fmt.Sprintf("%s / %s", name, pred)
			cand := v.Narrow(expr.BoundsOf(pred))
			if cand == nil {
				continue
			}
			narrowed++
			matches, _, err := engine.Filter(snap, pred, v.Positions, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkCandidates(t, label, v, cand, matches)
			nl := sl
			nl.Scan = cand
			q := engine.Query{Table: "PhotoObjAll", Where: pred, Aggs: aggs}
			want, err := estimate.AggregateOnSelOpts(sl, q, 0.95, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := estimate.AggregateOnSelOpts(nl, q, 0.95, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEstimates(got, want) {
				t.Errorf("%s: narrowed estimates %+v, full scan %+v", label, got, want)
			}
			q.GroupBy = "g"
			wantG, err := estimate.GroupedAggregateOnSel(sl, q, 0.95, opts)
			if err != nil {
				t.Fatal(err)
			}
			gotG, err := estimate.GroupedAggregateOnSel(nl, q, 0.95, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotG) != len(wantG) {
				t.Fatalf("%s: %d narrowed groups, %d full-scan groups", label, len(gotG), len(wantG))
			}
			for i := range wantG {
				if gotG[i].Key != wantG[i].Key || !sameEstimates(gotG[i].Estimates, wantG[i].Estimates) {
					t.Errorf("%s: group %d narrowed %+v, full scan %+v", label, i, gotG[i], wantG[i])
				}
			}
			vec.PutSel(cand)
		}
	}
	// The property means little unless most views and shapes narrow.
	if narrowed < 250 {
		t.Fatalf("only %d (view, predicate) pairs narrowed", narrowed)
	}
}

// TestNarrowDeclines checks when Narrow leaves the scan to the whole
// view: no bound, no indexable column, candidates above half the view,
// an empty view.
func TestNarrowDeclines(t *testing.T) {
	tb := narrowBase(t)
	views := narrowViews(t, tb)
	v := views["all"]
	x := expr.ColRef{Name: "x"}
	for _, pred := range []expr.Predicate{
		expr.TruePred{},
		expr.StrEq{Col: "s", Value: "a"},
		expr.Cmp{Op: vec.Ne, Left: x, Right: 3},
		expr.Not{P: expr.Between{Expr: x, Lo: 0, Hi: 10}},
		expr.Cmp{Op: vec.Gt, Left: x, Right: 300}, // ~70 % of the view
		expr.Cmp{Op: vec.Eq, Left: expr.ColRef{Name: "c"}, Right: 7},
		expr.Cmp{Op: vec.Eq, Left: expr.ColRef{Name: "g"}, Right: 1}, // BIGINT
		expr.Cmp{Op: vec.Eq, Left: expr.ColRef{Name: "missing"}, Right: 1},
	} {
		if cand := v.Narrow(expr.BoundsOf(pred)); cand != nil {
			t.Errorf("%s: narrowed to %d of %d rows, want the whole view", pred, len(cand), len(v.Positions))
		}
	}
	if cand := views["empty"].Narrow(expr.BoundsOf(expr.Between{Expr: x, Lo: 0, Hi: 1})); cand != nil {
		t.Errorf("empty view narrowed to %v", cand)
	}
	// An empty interval admits nothing: a non-nil, empty scan.
	if cand := v.Narrow(expr.BoundsOf(expr.Between{Expr: x, Lo: 20, Hi: 10})); cand == nil || len(cand) != 0 {
		t.Errorf("empty interval narrowed to %v, want an empty scan", cand)
	}
}

// TestNarrowConcurrentFirstQueries races the first Narrow calls on a
// fresh view: every caller must see the index built once and get the
// same candidates (run under -race by make race).
func TestNarrowConcurrentFirstQueries(t *testing.T) {
	tb := narrowBase(t)
	im, err := New(tb, Config{Name: "L0", Size: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, narrowRows)
	v := im.View()
	bounds := expr.BoundsOf(expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 20, Radius: 8})
	const callers = 8
	got := make([]vec.Sel, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = v.Clamp(narrowRows).Narrow(bounds)
		}()
	}
	wg.Wait()
	if got[0] == nil {
		t.Fatal("cone did not narrow the view")
	}
	for i := 1; i < callers; i++ {
		if fmt.Sprint(got[i]) != fmt.Sprint(got[0]) {
			t.Fatalf("caller %d got %d candidates, caller 0 got %d", i, len(got[i]), len(got[0]))
		}
	}
}

// raceEnabled is set by racebuild_test.go under the race detector.
var raceEnabled bool

// TestNarrowZeroAlloc is the allocation gate of the candidate path:
// once a view's index is built, narrowing allocates nothing.
func TestNarrowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	tb := narrowBase(t)
	im, err := New(tb, Config{Name: "L0", Size: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, narrowRows)
	v := im.View()
	bounds := expr.BoundsOf(expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 20, Radius: 8})
	vec.PutSel(v.Narrow(bounds)) // build the index, warm the pools
	allocs := testing.AllocsPerRun(200, func() {
		vec.PutSel(v.Narrow(bounds))
	})
	if allocs != 0 {
		t.Fatalf("Narrow allocates %.1f times per call in steady state, want 0", allocs)
	}
}

// TestBucketSpanHoldsItsValues checks the property that lets a bucket
// span go unwidened: any value v lies in the span of [v, v], across
// every bucket edge and the floats next to it, for scales that are and
// are not exact in binary.
func TestBucketSpanHoldsItsValues(t *testing.T) {
	r := xrand.New(7)
	for _, c := range []struct{ min, max float64 }{{0, 1000}, {-90, 90}, {0.1, 0.7}, {-1e-3, 3e5}, {123.456, 123.457}} {
		for _, n := range []int{1, 31, 3200, 100_000} {
			ix := &bucketIndex{min: c.min, last: (n+bucketRows-1)/bucketRows - 1}
			ix.scale = float64(ix.last+1) / (c.max - c.min)
			var vals []float64
			for k := 0; k <= ix.last+1; k++ {
				e := c.min + float64(k)/ix.scale
				vals = append(vals, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
			}
			for i := 0; i < 1000; i++ {
				vals = append(vals, c.min+(c.max-c.min)*r.Float64())
			}
			for _, v := range vals {
				if b0, b1 := ix.span(v, v); ix.bucket(v) < b0 || ix.bucket(v) > b1 {
					t.Fatalf("[%g, %g] over %d rows: %v in bucket %d, outside its span [%d, %d]", c.min, c.max, n, v, ix.bucket(v), b0, b1)
				}
			}
		}
	}
}

// touchLog is a table.Pager recording the ranges reported to it.
type touchLog struct {
	mu     sync.Mutex
	ranges map[[2]int]bool
}

func (l *touchLog) Touch(lo, hi int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ranges[[2]int{lo, hi}] = true
}

// TestIndexBuildTouchesGranules: on a durable table, building a view's
// index reports its reads to the pager granule by granule, as a scan of
// the view's positions does.
func TestIndexBuildTouchesGranules(t *testing.T) {
	const rows = 2*column.ZoneRows + 1000
	tb := table.MustNew("t", table.Schema{{Name: "x", Type: column.Float64}})
	xs := make([]float64, rows)
	for i := range xs {
		xs[i] = float64(i % 1000)
	}
	if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", xs)}); err != nil {
		t.Fatal(err)
	}
	pager := &touchLog{ranges: map[[2]int]bool{}}
	tb.SetPager(pager)
	im, err := New(tb, Config{Name: "L0", Size: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, rows)
	vec.PutSel(im.View().Narrow(expr.BoundsOf(expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 10})))
	for _, want := range [][2]int{{0, column.ZoneRows}, {column.ZoneRows, 2 * column.ZoneRows}, {2 * column.ZoneRows, rows}} {
		if !pager.ranges[want] {
			t.Errorf("index build did not touch rows %v (touched %v)", want, pager.ranges)
		}
	}
}

// TestConeOffSphereRowNeverMatches: the three rows (190, 99), (10, 80)
// and (10, 0) under fGetNearbyObjEq(10, 80, 3). (190, 99) lies 1° past
// the pole, outside the band dec ∈ [76.99, 83.01] the cone bounds: it is
// not a sky position and must not match, so a scan that skips it by that
// band — a zone-map-pruned base scan (it is alone in the second
// granule) or a narrowed layer scan — answers what a full scan does.
func TestConeOffSphereRowNeverMatches(t *testing.T) {
	n := column.ZoneRows + 1
	ra, dec := make([]float64, n), make([]float64, n)
	for i := range ra {
		ra[i], dec[i] = 100, -60 // padding, far from the cone
	}
	ra[0], dec[0] = 10, 80
	ra[1], dec[1] = 10, 0
	ra[n-1], dec[n-1] = 190, 99
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
	cone := expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 80, Radius: 3}
	full, err := cone.FilterRange(tb, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 1 || full[0] != 0 {
		t.Fatalf("full scan matches rows %v, want [0]", full)
	}
	res, err := engine.RunOnOpts(tb, engine.Query{Table: "sky", Where: cone, Aggs: []engine.AggSpec{{Func: engine.Count}}},
		engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(res.States[0].Moments.N()); got != len(full) {
		t.Fatalf("pruned scan COUNT(*) = %d, full scan %d", got, len(full))
	}
	im, err := New(tb, Config{Name: "all", Size: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, int32(n))
	v := im.View()
	cand := v.Narrow(expr.BoundsOf(cone))
	if cand == nil {
		t.Fatal("the cone's band did not narrow the layer scan")
	}
	narrowed, err := cone.FilterSel(tb, cand)
	if err != nil {
		t.Fatal(err)
	}
	if len(narrowed) != len(full) || narrowed[0] != full[0] {
		t.Fatalf("narrowed scan matches rows %v, full scan %v", narrowed, full)
	}
}
