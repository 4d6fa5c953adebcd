package bounded

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
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
	bounds := expr.BoundsOf(q.Pred())
	for _, r := range ex.rungs() {
		r.narrow(bounds)
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

// TestConcurrentFirstBoundedQueries races bounded queries on freshly
// refreshed views, whose indexes the first of them builds: every answer
// must be the same (run under -race by make race).
func TestConcurrentFirstBoundedQueries(t *testing.T) {
	_, _, ex := fixture(t, 50000)
	q := narrowQuery()
	const callers = 8
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ans, err := runErr(ex, q, 0.05, 0.95)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = fmt.Sprintf("%s %+v", ans.Layer, ans.Estimates)
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d answered %s, caller 0 %s", i, got[i], got[0])
		}
	}
}
