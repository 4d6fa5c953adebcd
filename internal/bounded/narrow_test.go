package bounded

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/table"
	"sciborq/internal/xrand"
)

// narrowQuery is an AVG over a 5 % band of ra: about 250 of layer L0's
// 5000 samples (fixture over 50 000 rows) can match it.
func narrowQuery() engine.Query {
	q := avgQuery()
	q.Where = expr.Between{Expr: expr.ColRef{Name: "ra"}, Lo: 150, Hi: 156}
	return q
}

// TestTimeBoundedPicksNarrowedLayer: a layer whose full sample exceeds
// the budget's row count, but whose narrowed candidates fit, is the
// WITHIN TIME pick — and it is priced with the rows it will visit.
func TestTimeBoundedPicksNarrowedLayer(t *testing.T) {
	_, h, ex := fixture(t, 50000)
	q := narrowQuery()
	// 10 ns/row + 1 µs fixed: 10 µs buys 900 rows. L0's 5000 samples do
	// not fit; its ~250 candidates do.
	budget := 10 * time.Microsecond
	maxRows := ex.CostModel().MaxRowsWithin(budget)
	l0 := h.Layers()[0].View()
	if len(l0.Positions) <= maxRows {
		t.Fatalf("fixture: L0 has %d samples, the budget buys %d rows", len(l0.Positions), maxRows)
	}
	pick, rows, _, _ := ex.pickWithin(q, budget, ex.opts)
	pick.release()
	if pick.name != "L0" || pick.rows != len(l0.Positions) {
		t.Fatalf("picked %s (%d samples), want L0 (%d samples)", pick.name, pick.rows, len(l0.Positions))
	}
	if rows > maxRows || rows >= pick.rows {
		t.Fatalf("L0 priced at %d rows, want its narrowed candidates (<= %d)", rows, maxRows)
	}
	ans, err := runTime(ex, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Layer != "L0" || ans.Trail[0].Rows != len(l0.Positions) {
		t.Fatalf("ran on %s (%d rows), want L0", ans.Layer, ans.Trail[0].Rows)
	}
}

// TestBaseRungPricedUnnarrowed: narrowing applies to impression layers
// only; the exact base rung prices (and scans) the base table.
func TestBaseRungPricedUnnarrowed(t *testing.T) {
	tb, _, ex := fixture(t, 50000)
	q := narrowQuery()
	snap := tb.Snapshot()
	want := engine.EstimateScanRows(snap, q.Pred(), nil, ex.opts)
	boxes := expr.BoxesOf(q.Pred())
	for _, r := range ex.rungs() {
		r = r.open()
		r.narrow(boxes)
		if r.exact() {
			if r.positions() != nil || r.scanRows(q, ex.opts) != want {
				t.Fatalf("base rung scans %d positions priced at %d rows, want every row (%d)",
					len(r.positions()), r.scanRows(q, ex.opts), want)
			}
		}
		r.release()
	}
	pick, rows, _, _ := ex.pickWithin(q, time.Minute, ex.opts)
	if !pick.exact() || rows != want {
		t.Fatalf("a minute's budget picked %s priced at %d rows, want the base rung at %d", pick.name, rows, want)
	}
}

// TestTimeLayerNarrowedProjection: the positions TimeLayer hands a
// WITHIN TIME projection are narrowed, and the rows the projection's
// predicate selects from them are those it selects from the whole layer.
func TestTimeLayerNarrowedProjection(t *testing.T) {
	_, h, ex := fixture(t, 50000)
	q := narrowQuery()
	q.Aggs = nil
	q.Select = []string{"ra", "x"}
	snap, positions, exact := ex.TimeLayer(q, 10*time.Microsecond)
	if exact {
		t.Fatal("a 10 µs budget picked the base rung")
	}
	full := h.Layers()[0].View().Clamp(snap.Len()).Positions
	if len(positions) >= len(full) {
		t.Fatalf("projection scans %d of L0's %d samples, want the narrowed candidates", len(positions), len(full))
	}
	got, _, err := engine.Filter(snap, q.Pred(), positions, ex.opts)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := engine.Filter(snap, q.Pred(), full, ex.opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("narrowed projection selects %d rows, the whole layer %d", len(got), len(want))
	}
}

// skyFixture is fixture with sky coordinates: a 3-layer uniform
// hierarchy over n rows of (ra, dec, x) in the explore window, for cone
// queries.
func skyFixture(t *testing.T, n int) (*table.Table, *impression.Hierarchy, *Executor) {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "x", Type: column.Float64},
	})
	r := xrand.New(101)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		ra, dec := 120+r.Float64()*120, r.Float64()*60
		rows = append(rows, table.Row{ra, dec, ra/10 + r.NormFloat64()})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	var layers []*impression.Impression
	for i, size := range []int{n / 5, n / 50, n / 500} {
		im, err := impression.New(tb, impression.Config{Name: fmt.Sprintf("L%d", i), Size: size, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, im)
	}
	h, err := impression.NewHierarchy(layers, 5000)
	if err != nil {
		t.Fatal(err)
	}
	h.OfferRange(0, int32(n))
	h.Refresh()
	ex, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 10, FixedNs: 1000}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tb, h, ex
}

// coneQuery is an AVG over a 3° cone inside skyFixture's window.
func coneQuery() engine.Query {
	q := avgQuery()
	q.Where = expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 30, Radius: 3}
	return q
}

// TestConcurrentFirstBoundedQueries races bounded queries on freshly
// refreshed views, whose grids the first of them builds — a band on ra
// and a cone's (dec, ra) grid, under WITHIN ERROR and WITHIN TIME:
// every answer of a shape must be the same (run under -race by make
// race).
func TestConcurrentFirstBoundedQueries(t *testing.T) {
	for _, c := range []struct {
		name string
		ex   func(*testing.T) *Executor
		q    engine.Query
	}{
		{"band", func(t *testing.T) *Executor { _, _, ex := fixture(t, 50000); return ex }, narrowQuery()},
		{"cone", func(t *testing.T) *Executor { _, _, ex := skyFixture(t, 50000); return ex }, coneQuery()},
	} {
		ex := c.ex(t)
		const callers = 8
		got := make([]string, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ans *Answer
				var err error
				if i%2 == 0 {
					ans, err = runErr(ex, c.q, 0.05, 0.95)
				} else {
					ans, err = runTime(ex, c.q, time.Hour)
				}
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = fmt.Sprintf("%s %+v", ans.Layer, ans.Estimates)
			}()
		}
		wg.Wait()
		for i := 2; i < callers; i++ {
			if got[i] != got[i%2] {
				t.Fatalf("%s: caller %d answered %s, caller %d %s", c.name, i, got[i], i%2, got[i%2])
			}
		}
	}
}

// TestErrorBoundedTakesViewsItRuns: after a load dirties layer 0, a
// WITHIN ERROR query the smallest layer satisfies must not refresh layer
// 0's view. The observable is the next View() call on layer 0: it
// refreshes (allocating at least its position array) only if the query
// left the view unbuilt.
func TestErrorBoundedTakesViewsItRuns(t *testing.T) {
	tb, h, ex := skyFixture(t, 50000)
	r := xrand.New(7)
	rows := make([]table.Row, 1000)
	for i := range rows {
		rows[i] = table.Row{120 + r.Float64()*120, r.Float64() * 60, r.NormFloat64()}
	}
	n := tb.Len()
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	h.OfferRange(int32(n), int32(tb.Len()))
	ans, err := runErr(ex, coneQuery(), 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Trail) != 1 || ans.Layer != "L2" {
		t.Fatalf("a 1000 %% bound ran %+v, want the smallest layer alone", ans.Trail)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v := h.Layers()[0].View()
	runtime.ReadMemStats(&after)
	if grew, want := after.TotalAlloc-before.TotalAlloc, uint64(4*len(v.Positions)); grew < want {
		t.Fatalf("layer 0's view cost %d bytes after the query, want a refresh (>= %d bytes): the query took it", grew, want)
	}
}
