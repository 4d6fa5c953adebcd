package engine

import (
	"errors"
	"sync/atomic"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/faultinject"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// panicPred is a user-defined predicate that panics on its Nth kernel
// call — the poisoned-row/buggy-UDF stand-in the recover guards exist
// for.
type panicPred struct {
	calls   atomic.Int64
	panicAt int64
}

func (p *panicPred) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	if p.calls.Add(1) == p.panicAt {
		panic("panicPred: poisoned morsel")
	}
	return vec.Sel{}, nil
}

func (p *panicPred) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	return p.FilterRange(t, 0, 0)
}

func (p *panicPred) Points() []expr.Point { return nil }
func (p *panicPred) String() string       { return "panics()" }

func panicTestTable(t *testing.T, n int) *table.Table {
	t.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	tb := table.MustNew("panics", table.Schema{{Name: "x", Type: column.Float64}})
	if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", data)}); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestMorselPanicBecomesError: a panic inside one morsel's evaluation —
// sequential or on a pool worker — surfaces as a *PanicError from the
// scan instead of crashing the process, and the pool survives to run
// the next query.
func TestMorselPanicBecomesError(t *testing.T) {
	const rows, morsel = 256, 16 // 16 morsels
	tb := panicTestTable(t, rows)
	for _, workers := range []int{1, 4} {
		pred := &panicPred{panicAt: 5}
		q := Query{Table: "panics", Where: pred, Aggs: []AggSpec{{Func: Count}}}
		opts := ExecOptions{Parallelism: workers, MorselRows: morsel}
		_, err := RunOnOpts(tb, q, opts)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want *PanicError, got %v", workers, err)
		}
		if pe.Value != "panicPred: poisoned morsel" {
			t.Fatalf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError carries no stack", workers)
		}
		// The engine must still work after the recovered panic.
		res, err := RunOnOpts(tb, Query{Table: "panics", Aggs: []AggSpec{{Func: Count}}}, opts)
		if err != nil {
			t.Fatalf("workers=%d: scan after recovered panic failed: %v", workers, err)
		}
		if got, _ := res.Scalar("COUNT(*)"); got != rows {
			t.Fatalf("workers=%d: post-panic COUNT = %v, want %d", workers, got, rows)
		}
	}
}

// TestInjectedMorselFaults: the engine.morsel fault point injects
// per-morsel errors and panics; both surface as per-query errors and
// the fault-free path afterwards is untouched.
func TestInjectedMorselFaults(t *testing.T) {
	const rows, morsel = 256, 16
	tb := panicTestTable(t, rows)
	q := Query{Table: "panics", Where: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "x"}, Right: 0}, Aggs: []AggSpec{{Func: Count}}}
	opts := ExecOptions{Parallelism: 4, MorselRows: morsel}

	plan := faultinject.NewPlan(
		faultinject.Fault{Point: faultinject.PointMorsel, Hit: 2, Kind: faultinject.KindError},
		faultinject.Fault{Point: faultinject.PointMorsel, Hit: 20, Kind: faultinject.KindPanic},
	)
	faultinject.Enable(plan)
	defer faultinject.Disable()

	if _, err := RunOnOpts(tb, q, opts); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	// Second query crosses hit 20: the injected panic must come back as
	// a *PanicError wrapping the injection identity.
	var pe *PanicError
	if _, err := RunOnOpts(tb, q, opts); !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from injected panic, got %v", err)
	} else if _, ok := pe.Value.(*faultinject.InjectedPanic); !ok {
		t.Fatalf("PanicError value = %T, want *faultinject.InjectedPanic", pe.Value)
	}

	faultinject.Disable()
	res, err := RunOnOpts(tb, q, opts)
	if err != nil {
		t.Fatalf("fault-free query after chaos failed: %v", err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != rows {
		t.Fatalf("post-fault COUNT = %v, want %d", got, rows)
	}
}

// TestPanicReleasesPooledScratch: after a recovered morsel panic the
// selection pool still hands out sane scratch — the deferred PutSel in
// scan ran during the unwind (this is a smoke check; the -race
// chaos suite exercises it under load).
func TestPanicReleasesPooledScratch(t *testing.T) {
	const rows, morsel = 512, 16
	tb := panicTestTable(t, rows)
	opts := ExecOptions{Parallelism: 2, MorselRows: morsel}
	for i := 0; i < 8; i++ {
		pred := &panicPred{panicAt: 3}
		q := Query{Table: "panics", Where: pred, Aggs: []AggSpec{{Func: Count}}}
		if _, err := RunOnOpts(tb, q, opts); err == nil {
			t.Fatal("expected panic error")
		}
		// A real filter through the same pooled scratch must stay exact.
		sel, _, err := Filter(tb, expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 100}, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != 100 {
			t.Fatalf("iteration %d: filter after panic returned %d rows, want 100", i, len(sel))
		}
	}
}
