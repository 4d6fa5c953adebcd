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
// wide and grid values land exactly on their edges. ra holds the same
// hazards for a cone's grid: ±Inf, NaN, −400 and 720 (both pass every
// cone's RA test across the wrap, and they make the cells 80° or 160°
// wide on the larger layers) and duplicates on a 5° grid, so multiples
// of 80 lie exactly on cell edges; raw is ra with ±1e17 on some rows.
// dec is on the sphere except for NaN and ±Inf; c is constant; s is a
// string and g a group key.
func narrowBase(t *testing.T) *table.Table {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "y", Type: column.Float64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "raw", Type: column.Float64},
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
		ra := r.Float64() * 360
		switch {
		case i%7 == 3:
			ra = float64(r.Intn(73)) * 5
		case i%29 == 4:
			ra = []float64{math.Inf(1), math.Inf(-1), math.NaN(), -400, 720}[i/29%5]
		}
		raw := ra
		if i%41 == 5 {
			raw = []float64{1e17, -1e17}[i/41%2]
		}
		s := "a"
		if i%3 == 0 {
			s = "b"
		}
		rows = append(rows, table.Row{x, r.NormFloat64(), ra, dec, raw, 7.0, s, int64(i % 5)})
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
	return append(out, narrowCones()...)
}

// narrowCones returns cones over the table of narrowBase: centres at and
// across the 0/360 wrap, far outside [0, 360) and not finite, near the
// poles (RA test off) and off the sphere, radius 0, negative, 90° and
// more, over the wild raw column and with a constant column for either
// coordinate.
func narrowCones() []expr.Predicate {
	var out []expr.Predicate
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range [][3]float64{
		{180, 0, 10}, {30, 45, 5}, {300, -60, 12}, {160, 20, 3}, {80, -5, 2.5},
		{0, 10, 6}, {0.2, 60, 3}, {359.5, -20, 8}, {360, 0, 5}, {-0.5, 30, 20},
		{10, 88, 4}, {200, -89.5, 3}, {100, 80, 9.995}, {45, -85, 5},
		{90, 0, 0}, {240, 40, 0}, {50, 0, -1},
		{120, 30, 90}, {120, 30, 135}, {10, -10, 200},
		{-400, 0, 3}, {720, 15, 4}, {1e17, 0, 3}, {inf, 0, 3}, {-inf, 0, 3}, {nan, 0, 3}, {10, 95, 3},
	} {
		out = append(out, expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: c[0], Dec0: c[1], Radius: c[2]})
	}
	for _, c := range [][3]float64{{180, 0, 10}, {0, 10, 6}, {1e17, 0, 3}} {
		out = append(out, expr.Cone{RaCol: "raw", DecCol: "dec", Ra0: c[0], Dec0: c[1], Radius: c[2]})
	}
	return append(out,
		expr.Cone{RaCol: "ra", DecCol: "c", Ra0: 30, Dec0: 7, Radius: 5},
		expr.Cone{RaCol: "c", DecCol: "dec", Ra0: 7, Dec0: 0, Radius: 5},
		expr.Cone{RaCol: "c", DecCol: "dec", Ra0: 200, Dec0: 0, Radius: 5},
		expr.And{L: expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 0, Dec0: 0, Radius: 8}, R: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 100, Hi: 400}},
		expr.Or{L: expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 10, Dec0: 0, Radius: 4}, R: expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 350, Dec0: 5, Radius: 4}},
	)
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

// inBoxes reports whether row p lies inside every box over DOUBLE
// columns: the rows Narrow must keep, whichever box it narrows by. A NaN
// box end bounds nothing, as in the index.
func inBoxes(t *testing.T, snap *table.Table, boxes []expr.Box, p int32) bool {
	t.Helper()
	for _, b := range boxes {
		data, err := snap.Float64(b.Attr)
		if err != nil {
			continue
		}
		v := data[p]
		if v != v || !(math.IsNaN(b.Lo) || v >= b.Lo) || !(math.IsNaN(b.Hi) || v <= b.Hi) {
			return false
		}
		if b.Col == "" {
			continue
		}
		if data, err = snap.Float64(b.Col); err != nil {
			continue
		}
		if d := math.Abs(data[p] - b.Center); !(d <= b.Near || d >= b.Far) {
			return false
		}
	}
	return true
}

// checkCandidates checks that cand is a strictly ascending subset of the
// view's positions, that idx holds their sample indices, and that it
// keeps every view row inside the predicate's boxes — for a cone, every
// row its kernel's pass-1 box passes — and so every match.
func checkCandidates(t *testing.T, label string, snap *table.Table, v View, pred expr.Predicate, cand, idx, matches vec.Sel) {
	t.Helper()
	if len(idx) != len(cand) {
		t.Fatalf("%s: %d sample indices for %d candidates", label, len(idx), len(cand))
	}
	got := make(map[int32]bool, len(cand))
	for i, p := range cand {
		if i > 0 && cand[i-1] >= p {
			t.Fatalf("%s: candidates not strictly ascending at %d (%d after %d)", label, i, p, cand[i-1])
		}
		if s := idx[i]; s < 0 || int(s) >= len(v.Positions) || v.Positions[s] != p {
			t.Fatalf("%s: candidate %d has sample index %d, not a view position's", label, p, s)
		}
		got[p] = true
	}
	boxes := expr.BoxesOf(pred)
	for _, p := range v.Positions {
		if !got[p] && inBoxes(t, snap, boxes, p) {
			t.Fatalf("%s: row %d inside the boxes %+v is not a candidate (%d candidates)", label, p, boxes, len(cand))
		}
	}
	for _, p := range matches {
		if !got[p] {
			t.Fatalf("%s: match %d is not a candidate (%d candidates, %d matches)", label, p, len(cand), len(matches))
		}
	}
}

// checkNarrowExact checks every (view, predicate) pair: the candidates
// (checkCandidates), and ungrouped and grouped estimates over the
// narrowed scan bit-identical to those over the whole view. It returns
// how many pairs narrowed.
func checkNarrowExact(t *testing.T, snap *table.Table, views map[string]View, preds []expr.Predicate) int {
	t.Helper()
	opts := engine.ExecOptions{Parallelism: 2, MorselRows: 1024}
	y := expr.ColRef{Name: "y"}
	aggs := []engine.AggSpec{
		{Func: engine.Count, Alias: "n"},
		{Func: engine.Sum, Arg: y, Alias: "s"},
		{Func: engine.Avg, Arg: y, Alias: "m"},
	}
	narrowed := 0
	for name, v := range views {
		sl := estimate.SelLayer{Name: name, Base: snap, Positions: v.Positions, Weights: v.Weights,
			CountWeights: v.Pis, ShareSums: v.ShareSums, BaseRows: int64(snap.Len())}
		for _, pred := range preds {
			label := fmt.Sprintf("%s / %s", name, pred)
			cand, idx := v.Narrow(expr.BoxesOf(pred))
			if cand == nil {
				continue
			}
			narrowed++
			matches, _, err := engine.Filter(snap, pred, v.Positions, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkCandidates(t, label, snap, v, pred, cand, idx, matches)
			nl := sl
			nl.Scan, nl.ScanIdx = cand, idx
			q := engine.Query{Table: snap.Name(), Where: pred, Aggs: aggs}
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
			vec.PutSel(idx)
		}
	}
	return narrowed
}

// TestNarrowIsExact checks, for every view and predicate shape, that
// the narrowed candidates are an ascending subset of the view holding
// every row inside the predicate's boxes, and that ungrouped and grouped
// estimates over the narrowed scan are bit-identical to those over the
// whole view. A second table puts a cone's RA-test edge between cells
// narrower than a float's spacing.
func TestNarrowIsExact(t *testing.T) {
	tb := narrowBase(t)
	narrowed := checkNarrowExact(t, tb.Snapshot(), narrowViews(t, tb), narrowPreds())
	// The property means little unless most views and shapes narrow.
	if narrowed < 400 {
		t.Fatalf("only %d (view, predicate) pairs narrowed", narrowed)
	}
	edge, cone := roundingEdgeBase(t)
	im, err := New(edge, Config{Name: "all", Size: edge.Len(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, int32(edge.Len()))
	v := im.View()
	views := map[string]View{"edge": v, "edge/clamped": v.Clamp(edge.Len() / 2)}
	if n := checkNarrowExact(t, edge.Snapshot(), views, []expr.Predicate{cone}); n != len(views) {
		t.Fatalf("the edge cone narrowed %d of %d views", n, len(views))
	}
}

// roundingEdgeBase finds a cone and a right ascension ra* that its
// kernel's pass-1 box passes although ra* lies beyond the computed end
// of the range the RA test allows (the test rounds its offset
// ra − Ra0), and builds a table of rows at ra* and the floats around it
// with dec at the cone's centre. Its grid's cells are narrower than the
// floats' spacing, so a range not widened for the rounding leaves ra*
// out.
func roundingEdgeBase(t *testing.T) (*table.Table, expr.Cone) {
	t.Helper()
	for m := 0; m < 256; m++ {
		cone := expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 0.3 + float64(m)*0x1p-55, Dec0: 20, Radius: 3}
		b := expr.BoxesOf(cone)[0]
		c := b.Center
		for _, end := range [][2]float64{{c + b.Near, 1}, {c - b.Near, -1}, {c + b.Far, -1}, {c - b.Far, 1}} {
			edge := math.Nextafter(end[0], end[1]*math.Inf(1))
			if d := math.Abs(edge - c); !(d <= b.Near || d >= b.Far) {
				continue
			}
			vals := []float64{edge}
			for lo, hi := edge, edge; len(vals) < 9; {
				lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
				vals = append(vals, lo, hi)
			}
			tb := table.MustNew("Edge", table.Schema{
				{Name: "ra", Type: column.Float64},
				{Name: "dec", Type: column.Float64},
				{Name: "y", Type: column.Float64},
				{Name: "g", Type: column.Int64},
			})
			// A quarter of the rows lie in the cone's band, so the box
			// narrows the view.
			rows := make([]table.Row, 4096)
			for i := range rows {
				dec := -60.0
				if i%4 == 0 {
					dec = cone.Dec0
				}
				rows[i] = table.Row{vals[i%len(vals)], dec, float64(i % 13), int64(i % 3)}
			}
			if err := tb.AppendBatch(rows); err != nil {
				t.Fatal(err)
			}
			return tb, cone
		}
	}
	t.Fatal("no cone puts a pass-1 survivor beyond its computed RA range")
	return nil, expr.Cone{}
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
		if cand, idx := v.Narrow(expr.BoxesOf(pred)); cand != nil || idx != nil {
			t.Errorf("%s: narrowed to %d of %d rows, want the whole view", pred, len(cand), len(v.Positions))
		}
	}
	if cand, _ := views["empty"].Narrow(expr.BoxesOf(expr.Between{Expr: x, Lo: 0, Hi: 1})); cand != nil {
		t.Errorf("empty view narrowed to %v", cand)
	}
	// An empty interval admits nothing: a non-nil, empty scan.
	for _, pred := range []expr.Predicate{
		expr.Between{Expr: x, Lo: 20, Hi: 10},
		expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 50, Dec0: 0, Radius: -1},
	} {
		if cand, idx := v.Narrow(expr.BoxesOf(pred)); cand == nil || len(cand) != 0 || len(idx) != 0 {
			t.Errorf("%s: narrowed to %v, want an empty scan", pred, cand)
		}
	}
}

// TestNarrowConcurrentFirstQueries races the first Narrow calls on a
// fresh view, half of them by a cone's two-column box and half by a
// bound on x: every caller must see each grid built once and get the
// same candidates and sample indices as the others of its shape (run
// under -race by make race).
func TestNarrowConcurrentFirstQueries(t *testing.T) {
	tb := narrowBase(t)
	im, err := New(tb, Config{Name: "L0", Size: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, narrowRows)
	v := im.View()
	shapes := [][]expr.Box{
		expr.BoxesOf(expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 20, Radius: 8}),
		expr.BoxesOf(expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 100, Hi: 140}),
	}
	if shapes[0][0].Col != "ra" {
		t.Fatalf("the cone's box %+v is not two-column", shapes[0])
	}
	const callers = 8
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cand, idx := v.Clamp(narrowRows).Narrow(shapes[i%len(shapes)])
			if cand != nil {
				got[i] = fmt.Sprint(cand, idx)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] == "" {
			t.Fatalf("caller %d's shape did not narrow the view", i)
		}
		if j := i % len(shapes); got[i] != got[j] {
			t.Fatalf("caller %d got candidates %.60s…, caller %d %.60s…", i, got[i], j, got[j])
		}
	}
}

// raceEnabled is set by racebuild_test.go under the race detector.
var raceEnabled bool

// TestNarrowZeroAlloc is the allocation gate of the candidate path:
// once a view's grid is built, narrowing a cone through its two-column
// box allocates nothing, its scan and sample indices both pooled.
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
	boxes := expr.BoxesOf(expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 20, Radius: 8})
	if len(boxes) != 1 || boxes[0].Col != "ra" {
		t.Fatalf("the cone's boxes %+v are not one two-column box", boxes)
	}
	narrow := func() {
		cand, idx := v.Narrow(boxes)
		if cand == nil {
			t.Fatal("the cone did not narrow the view")
		}
		vec.PutSel(cand)
		vec.PutSel(idx)
	}
	narrow() // build the grid, warm the pools
	allocs := testing.AllocsPerRun(200, narrow)
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
			ix := &axis{min: c.min, last: (n+bucketRows-1)/bucketRows - 1}
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
// one-column grid and its two-column grid each report their reads to the
// pager granule by granule, as a scan of the view's positions does.
func TestIndexBuildTouchesGranules(t *testing.T) {
	const rows = 2*column.ZoneRows + 1000
	tb := table.MustNew("t", table.Schema{{Name: "x", Type: column.Float64}, {Name: "dec", Type: column.Float64}})
	xs, decs := make([]float64, rows), make([]float64, rows)
	for i := range xs {
		xs[i], decs[i] = float64(i%1000), float64(i%90)
	}
	if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", xs), column.NewFloat64From("dec", decs)}); err != nil {
		t.Fatal(err)
	}
	pager := &touchLog{ranges: map[[2]int]bool{}}
	tb.SetPager(pager)
	im, err := New(tb, Config{Name: "L0", Size: 3000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	im.OfferRange(0, rows)
	v := im.View()
	for _, pred := range []expr.Predicate{
		expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 10},
		expr.Cone{RaCol: "x", DecCol: "dec", Ra0: 500, Dec0: 10, Radius: 3},
	} {
		clear(pager.ranges)
		cand, idx := v.Narrow(expr.BoxesOf(pred))
		if cand == nil {
			t.Fatalf("%s did not narrow the view", pred)
		}
		vec.PutSel(cand)
		vec.PutSel(idx)
		for _, want := range [][2]int{{0, column.ZoneRows}, {column.ZoneRows, 2 * column.ZoneRows}, {2 * column.ZoneRows, rows}} {
			if !pager.ranges[want] {
				t.Errorf("%s: grid build did not touch rows %v (touched %v)", pred, want, pager.ranges)
			}
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
	cand, idx := v.Narrow(expr.BoxesOf(cone))
	defer vec.PutSel(idx)
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
