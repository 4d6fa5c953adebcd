package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// gatePred is a user-defined predicate whose evaluation blocks until
// released, so tests can hold a scan mid-morsel, cancel it, and then
// observe exactly how many more morsels the pool evaluated.
type gatePred struct {
	started chan struct{} // closed when the first morsel enters a kernel
	release chan struct{} // morsels block here until closed
	calls   atomic.Int64
	once    sync.Once
}

func newGatePred() *gatePred {
	return &gatePred{started: make(chan struct{}), release: make(chan struct{})}
}

func (p *gatePred) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	p.calls.Add(1)
	p.once.Do(func() { close(p.started) })
	<-p.release
	return vec.Sel{}, nil
}

func (p *gatePred) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	return p.FilterRange(t, 0, 0)
}

func (p *gatePred) Points() []expr.Point { return nil }
func (p *gatePred) String() string       { return "gate()" }

func cancelTestTable(t *testing.T, n int) *table.Table {
	t.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	tb := table.MustNew("cancel", table.Schema{{Name: "x", Type: column.Float64}})
	if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", data)}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestScanCancellationFreesWorkers proves the acceptance property:
// cancelling a running scan aborts it and frees the worker pool within
// one morsel boundary — workers finish the morsel they hold and pull no
// further ones.
func TestScanCancellationFreesWorkers(t *testing.T) {
	const (
		rows    = 64
		morsel  = 4 // 16 morsels
		workers = 2
	)
	tb := cancelTestTable(t, rows)
	pred := newGatePred()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := Query{Table: "cancel", Where: pred, Aggs: []AggSpec{{Func: Count}}}
	opts := ExecOptions{Parallelism: workers, MorselRows: morsel, Ctx: ctx}

	errc := make(chan error, 1)
	go func() {
		_, err := RunOnOpts(tb, q, opts)
		errc <- err
	}()

	<-pred.started // at least one worker is mid-morsel
	cancel()
	close(pred.release) // let the in-flight morsels finish

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled scan did not return: worker pool is stuck")
	}
	// Workers may each have held one morsel when cancel landed; none may
	// start another afterwards.
	if calls := pred.calls.Load(); calls > workers {
		t.Fatalf("pool evaluated %d morsels after holding cancellation, want <= %d (one per worker)", calls, workers)
	}
}

// TestScanCancellationBeforeStart: a context cancelled before the scan
// begins evaluates nothing at all.
func TestScanCancellationBeforeStart(t *testing.T) {
	tb := cancelTestTable(t, 64)
	pred := newGatePred()
	close(pred.release)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Table: "cancel", Where: pred, Aggs: []AggSpec{{Func: Count}}}
	for _, workers := range []int{1, 4} {
		_, err := RunOnOpts(tb, q, ExecOptions{Parallelism: workers, MorselRows: 4, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-cancelled scan returned %v, want context.Canceled", workers, err)
		}
	}
	if calls := pred.calls.Load(); calls != 0 {
		t.Fatalf("pre-cancelled scan evaluated %d morsels, want 0", calls)
	}
}

// TestSelScanCancellation covers the selection-vector scan path used by
// bounded layer evaluation and the recycler's refinement rung.
func TestSelScanCancellation(t *testing.T) {
	tb := cancelTestTable(t, 256)
	positions := make(vec.Sel, 0, 64)
	for i := int32(0); i < 256; i += 4 {
		positions = append(positions, i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pred := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 1e9}
	_, _, err := Filter(tb, pred, positions, ExecOptions{Parallelism: 2, MorselRows: 16, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled selection scan returned %v, want context.Canceled", err)
	}
}

// TestProjectionCancellation covers the filter+project path.
func TestProjectionCancellation(t *testing.T) {
	tb := cancelTestTable(t, 256)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Table: "cancel", Where: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 1e9}, Select: []string{"x"}}
	_, err := RunOnOpts(tb, q, ExecOptions{Parallelism: 2, MorselRows: 16, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled projection returned %v, want context.Canceled", err)
	}
}
