package engine

import (
	"sync"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// TestIngestWhileQuery runs AppendBatch concurrently with aggregate,
// grouped, projection, and raw-filter queries on the same table. Under
// -race this proves the snapshot scan path is free of data races; the
// assertions prove every query saw a batch-atomic prefix of the table
// (COUNT(*) is always a whole number of batches) rather than a torn
// intermediate state.
func TestIngestWhileQuery(t *testing.T) {
	const (
		batchRows = 500
		batches   = 40
	)
	tb := table.MustNew("stream", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "id", Type: column.Int64},
		{Name: "kind", Type: column.String},
	})
	kinds := []string{"GALAXY", "STAR", "QSO"}
	mkBatch := func(b int) []table.Row {
		rows := make([]table.Row, batchRows)
		for i := range rows {
			g := b*batchRows + i
			rows[i] = table.Row{float64(g % 997), int64(g), kinds[g%len(kinds)]}
		}
		return rows
	}
	// Seed one batch so early queries have rows to chew on.
	if err := tb.AppendBatch(mkBatch(0)); err != nil {
		t.Fatal(err)
	}

	opts := ExecOptions{Parallelism: 2, MorselRows: 1024}
	queries := []Query{
		{Table: "stream", Aggs: []AggSpec{{Func: Count}, {Func: Sum, Arg: expr.ColRef{Name: "x"}}}},
		{Table: "stream",
			Where: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 100, Hi: 400},
			Aggs:  []AggSpec{{Func: Count}, {Func: Avg, Arg: expr.ColRef{Name: "x"}}}},
		{Table: "stream", GroupBy: "kind",
			Where: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "id"}, Right: 10},
			Aggs:  []AggSpec{{Func: Count}}},
		{Table: "stream", Select: []string{"id", "x"},
			Where: expr.StrEq{Col: "kind", Value: "STAR"}, OrderBy: "x", Limit: 50},
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the nightly load, compressed
		defer wg.Done()
		defer close(done)
		for b := 1; b < batches; b++ {
			if err := tb.AppendBatch(mkBatch(b)); err != nil {
				t.Errorf("append batch %d: %v", b, err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prevCount := 0.0
			for i := 0; ; i++ {
				select {
				case <-done:
					if i > 0 {
						return
					}
				default:
				}
				q := queries[(w+i)%len(queries)]
				res, err := RunOnOpts(tb, q, opts)
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				if len(q.Aggs) > 0 && q.GroupBy == "" && q.Where == nil {
					count, err := res.Scalar("COUNT(*)")
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					if int(count)%batchRows != 0 {
						t.Errorf("worker %d saw torn batch: COUNT(*) = %v", w, count)
						return
					}
					if count < prevCount {
						t.Errorf("worker %d: COUNT(*) went backwards: %v -> %v", w, prevCount, count)
						return
					}
					prevCount = count
				}
				// Raw filter path on the shared table too.
				if _, _, err := Filter(tb, expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 250}, nil, opts); err != nil {
					t.Errorf("worker %d filter: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	res, err := RunOnOpts(tb, Query{Table: "stream", Aggs: []AggSpec{{Func: Count}}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	count, err := res.Scalar("COUNT(*)")
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(batches * batchRows); count != want {
		t.Fatalf("final COUNT(*) = %v, want %v", count, want)
	}
}
