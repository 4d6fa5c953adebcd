package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/faultinject"
	"sciborq/internal/table"
)

// PanicError is a panic recovered inside the morsel runner, converted
// into a per-query error: one poisoned row, a buggy user predicate, or
// an injected fault takes down that query alone — never the worker
// pool's goroutines, and never the process. The originating stack is
// preserved for the server's error log.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic during scan: %v", e.Value)
}

// runMorselGuarded executes one morsel unit with panic isolation: a
// panic in fn (predicate evaluation, aggregation, a user-defined
// predicate) is recovered into a *PanicError return, after fn's own
// deferred cleanups (pooled scratch release) have run. The
// faultinject.PointMorsel hook fires first, so chaos schedules can
// inject per-morsel errors, panics, and latency; disabled, the hook is
// one atomic load. The defer+recover pair costs a few nanoseconds per
// morsel — noise against the 64K rows a morsel evaluates (pinned by
// BenchmarkPanicGuardOverhead).
func runMorselGuarded(fn func(i int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Fire(faultinject.PointMorsel); err != nil {
		return err
	}
	return fn(i)
}

// DefaultMorselRows is the default morsel size: the number of base rows
// each scheduling unit covers. Morsel boundaries depend only on this
// value (never on the worker count), which is what makes results
// reproducible across parallelism levels.
const DefaultMorselRows = 64 * 1024

// ExecOptions controls morsel-driven parallel execution.
//
// A scan over n rows is split into ⌈n/MorselRows⌉ contiguous morsels;
// Parallelism workers pull morsel indices from a shared counter,
// evaluate the predicate and fold per-morsel partial aggregate states,
// and the coordinator merges the partials in ascending morsel order.
// Because the merge order is fixed by the morsel layout, every result —
// including floating-point SUM/AVG/STDDEV — is bit-identical for any
// Parallelism value; only wall-clock time changes. A table no larger
// than one morsel is a one-part scan through the same loop.
type ExecOptions struct {
	// Parallelism is the number of scan workers. Zero or negative means
	// GOMAXPROCS; 1 forces sequential execution.
	Parallelism int
	// MorselRows is the rows-per-morsel granule. Zero or negative means
	// DefaultMorselRows. It determines floating-point merge layout, so
	// fix it when bit-reproducibility across configurations matters.
	MorselRows int
	// Ctx, when non-nil, cancels the scan cooperatively: every worker
	// checks it between morsels, so a cancelled query frees its workers
	// within one morsel boundary and the scan returns Ctx.Err(). This is
	// per-query state, not configuration — long-lived holders of
	// ExecOptions (a DB, an executor) keep it nil and stamp a copy per
	// query. A nil Ctx means "never cancelled" and costs nothing.
	Ctx context.Context
}

// DefaultExecOptions returns the default configuration: one worker per
// available CPU, DefaultMorselRows-row morsels.
func DefaultExecOptions() ExecOptions { return ExecOptions{} }

// workers resolves the effective worker count.
func (o ExecOptions) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// morselRows resolves the effective morsel granule.
func (o ExecOptions) morselRows() int {
	if o.MorselRows > 0 {
		return o.MorselRows
	}
	return DefaultMorselRows
}

// morselCount returns the number of morsels covering n rows.
func (o ExecOptions) morselCount(n int) int {
	mr := o.morselRows()
	return (n + mr - 1) / mr
}

// forEachMorsel runs fn(i) for every part index i in [0, parts),
// fanning out to min(workers, parts) goroutines that pull indices from a
// shared counter. fn must only write state owned by part i (typically
// partials[m] of its morsel m); shared inputs are read-only for the
// duration of the scan — scans run over table snapshots (see scan), so
// a concurrent Load on the source table only writes rows the scan
// cannot see. The first error in part order is returned, so error
// reporting is deterministic too.
//
// When opts.Ctx is cancelled, workers stop pulling parts at the next
// part boundary and the scan returns opts.Ctx.Err(); cancellation
// takes precedence over per-part errors because the partial state is
// abandoned either way.
//
// Every fn invocation runs under runMorselGuarded: a panic inside it —
// on a pool worker or on the caller's goroutine — surfaces as a
// *PanicError for this scan only, keeping the worker pool and the
// process alive.
func forEachMorsel(parts int, opts ExecOptions, fn func(i int) error) error {
	if parts <= 0 {
		return nil
	}
	var done <-chan struct{}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return err
		}
		done = opts.Ctx.Done()
	}
	workers := min(opts.workers(), parts)
	if workers <= 1 {
		for i := 0; i < parts; i++ {
			if done != nil {
				select {
				case <-done:
					return opts.Ctx.Err()
				default:
				}
			}
			if err := runMorselGuarded(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, parts)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= parts {
					return
				}
				errs[i] = runMorselGuarded(fn, i)
			}
		}()
	}
	wg.Wait()
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// isTruePred reports whether pred is the constant-true predicate.
func isTruePred(pred expr.Predicate) bool {
	if pred == nil {
		return true
	}
	_, ok := pred.(expr.TruePred)
	return ok
}

// preparePred rewrites pred so that every scalar argument whose
// evaluation allocates (Int64 widening, Arith intermediates, Const
// columns) is materialised exactly once before the morsel fan-out;
// without this, each morsel's kernel call would re-materialise the
// full column, making the parallel path O(n × morsels). Raw
// float64 column references are left alone — they already evaluate to
// shared storage (and keep the Cmp fast path). Unknown predicate
// shapes pass through unchanged.
func preparePred(t *table.Table, pred expr.Predicate) (expr.Predicate, error) {
	switch p := pred.(type) {
	case expr.And:
		l, err := preparePred(t, p.L)
		if err != nil {
			return nil, err
		}
		r, err := preparePred(t, p.R)
		if err != nil {
			return nil, err
		}
		return expr.And{L: l, R: r}, nil
	case expr.Or:
		l, err := preparePred(t, p.L)
		if err != nil {
			return nil, err
		}
		r, err := preparePred(t, p.R)
		if err != nil {
			return nil, err
		}
		return expr.Or{L: l, R: r}, nil
	case expr.Not:
		inner, err := preparePred(t, p.P)
		if err != nil {
			return nil, err
		}
		return expr.Not{P: inner}, nil
	case expr.Cmp:
		left, err := prepareScalar(t, p.Left)
		if err != nil {
			return nil, err
		}
		return expr.Cmp{Op: p.Op, Left: left, Right: p.Right}, nil
	case expr.Between:
		e, err := prepareScalar(t, p.Expr)
		if err != nil {
			return nil, err
		}
		return expr.Between{Expr: e, Lo: p.Lo, Hi: p.Hi}, nil
	default:
		// StrEq (dictionary compare), Cone (raw column reads),
		// TruePred, and user-defined predicates: per-morsel cost is
		// already proportional to the morsel.
		return pred, nil
	}
}

// prepareScalar materialises s once unless it already evaluates to
// shared storage (a float64 column reference).
func prepareScalar(t *table.Table, s expr.Scalar) (expr.Scalar, error) {
	if ref, ok := s.(expr.ColRef); ok {
		if c, err := t.Col(ref.Name); err == nil {
			if _, isF64 := c.(*column.Float64Col); isF64 {
				return s, nil
			}
		}
		// Missing columns fall through so the error surfaces with the
		// original expression rendering.
	}
	vals, err := s.EvalF64(t)
	if err != nil {
		return nil, err
	}
	return expr.Materialized{Vals: vals, Desc: s.String()}, nil
}

// ScanStats reports what a morsel scan actually did: how many morsels
// the layout produced, how many zone-map pruning skipped outright, and
// the row counts on either side of that cut. ScannedRows is what the
// cost model should price — pruned morsels cost (almost) nothing.
type ScanStats struct {
	// Morsels is the number of morsels covering the scanned table.
	Morsels int
	// SkippedMorsels is how many of them zone maps proved empty of
	// matches, skipping predicate evaluation entirely.
	SkippedMorsels int
	// ScannedRows is the number of base rows actually evaluated.
	ScannedRows int
	// SkippedRows is the number of base rows in skipped morsels.
	SkippedRows int
}

// zoneCheck pairs one necessary predicate bound with the zone-mapped
// column it constrains.
type zoneCheck struct {
	zm     column.ZoneMapped
	lo, hi float64
}

// canSkip reports whether rows [lo, hi) provably contain no value
// inside the bound interval.
func (z zoneCheck) canSkip(lo, hi int) bool {
	mn, mx, ok := z.zm.ZoneBounds(lo, hi)
	return ok && (mx < z.lo || mn > z.hi)
}

// pruned reports whether any zone check proves rows [lo, hi) empty of
// matches.
func pruned(checks []zoneCheck, lo, hi int) bool {
	for _, zc := range checks {
		if zc.canSkip(lo, hi) {
			return true
		}
	}
	return false
}

// zoneChecks resolves pred's necessary column bounds (expr.BoundsOf)
// against t's zone-mapped columns. Bounds must come from the original
// predicate — preparePred rewrites scalars to Materialized, which
// erases the attribute names — so callers extract checks before
// preparing.
func zoneChecks(t *table.Table, pred expr.Predicate) []zoneCheck {
	bounds := expr.BoundsOf(pred)
	if len(bounds) == 0 {
		return nil
	}
	out := make([]zoneCheck, 0, len(bounds))
	for _, b := range bounds {
		col, err := t.Col(b.Attr)
		if err != nil {
			continue // unknown attr: the filter itself will report it
		}
		if zm, ok := col.(column.ZoneMapped); ok {
			out = append(out, zoneCheck{zm: zm, lo: b.Lo, hi: b.Hi})
		}
	}
	return out
}

// validatePred checks pred's column references against t without
// touching row data. Zone-map pruning can skip every morsel — and with
// them the predicate evaluation that would normally surface a bad
// reference — so pruned scans validate up front to keep error
// reporting independent of the stored values. Unknown predicate and
// scalar shapes pass (they report no bounds, so a conjunct of them
// alone never prunes without evaluating).
func validatePred(t *table.Table, pred expr.Predicate) error {
	switch p := pred.(type) {
	case expr.And:
		if err := validatePred(t, p.L); err != nil {
			return err
		}
		return validatePred(t, p.R)
	case expr.Or:
		if err := validatePred(t, p.L); err != nil {
			return err
		}
		return validatePred(t, p.R)
	case expr.Not:
		return validatePred(t, p.P)
	case expr.Cmp:
		return validateScalar(t, p.Left)
	case expr.Between:
		return validateScalar(t, p.Expr)
	case expr.StrEq:
		col, err := t.Col(p.Col)
		if err != nil {
			return err
		}
		if _, ok := col.(*column.StringCol); !ok {
			return fmt.Errorf("expr: column %q is %s, want VARCHAR", p.Col, col.Type())
		}
		return nil
	case expr.Cone:
		if _, err := t.Float64(p.RaCol); err != nil {
			return err
		}
		_, err := t.Float64(p.DecCol)
		return err
	default:
		return nil
	}
}

// validateScalar is validatePred for scalar sub-expressions.
func validateScalar(t *table.Table, s expr.Scalar) error {
	switch e := s.(type) {
	case expr.ColRef:
		col, err := t.Col(e.Name)
		if err != nil {
			return err
		}
		switch col.(type) {
		case *column.Float64Col, *column.Int64Col:
			return nil
		}
		return fmt.Errorf("expr: column %q has non-numeric type %s", e.Name, col.Type())
	case expr.Arith:
		if err := validateScalar(t, e.L); err != nil {
			return err
		}
		return validateScalar(t, e.R)
	default:
		return nil
	}
}
