package bounded

import (
	"context"
	"testing"
	"time"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/recycler"
	"sciborq/internal/sqlparse"
	"sciborq/internal/vec"
)

// TestRecyclerServedBaseDoesNotPoisonCostModel guards the learning
// loop: a time-bounded query whose exact-base rung is answered from
// the recycler finishes in cache-hit time, and that latency must not
// be charged against the full-scan row count — the EWMA would drag
// ns/row toward zero and inflate every later time promise.
func TestRecyclerServedBaseDoesNotPoisonCostModel(t *testing.T) {
	tb, _, _ := fixture(t, 20_000)
	rec, err := recycler.New(recycler.DefaultBudget)
	if err != nil {
		t.Fatal(err)
	}
	// No hierarchy: every pick lands on the exact base rung.
	ex, err := NewExecutor(tb, nil, engine.CostModel{NsPerRow: 10, FixedNs: 1000},
		engine.ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := avgQuery()
	q.Where = expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "ra"}, Right: 200}
	st := &sqlparse.Statement{Query: q, Bounds: sqlparse.Bounds{MaxTime: time.Second}}

	// First run: cold — the recycler misses, the scan really happens,
	// and the model may legitimately learn from it.
	if _, err := ex.Run(context.Background(), st, rec); err != nil {
		t.Fatal(err)
	}
	learned := ex.CostModel().NsPerRow
	if learned <= 0 {
		t.Fatalf("cold run left ns/row = %v", learned)
	}
	// Warm runs: exact hits touch zero rows, so the model must not move.
	for i := 0; i < 5; i++ {
		if _, err := ex.Run(context.Background(), st, rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := rec.Stats(); st.Hits < 5 {
		t.Fatalf("warm runs did not hit the recycler: %+v", st)
	}
	if got := ex.CostModel().NsPerRow; got != learned {
		t.Fatalf("cache-served runs fed the cost model: ns/row %v -> %v", learned, got)
	}
}
