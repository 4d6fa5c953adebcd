package sciborq

import (
	"context"
	"fmt"
	"strings"
	"time"

	"sciborq/internal/bounded"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/recycler"
	"sciborq/internal/sqlparse"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Result is the uniform answer of DB.Exec: either an exact relational
// result or a bounded estimate with confidence intervals.
type Result struct {
	// Rows is the materialised result for exact (unbounded) queries;
	// nil for bounded answers.
	Rows *engine.Result
	// Bounded is the layered answer for bounded queries; nil otherwise.
	Bounded *bounded.Answer
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// SQL is the executed statement.
	SQL string
}

// Estimates returns the per-aggregate estimates of a bounded answer.
func (r *Result) Estimates() []estimate.Estimate {
	if r.Bounded == nil {
		return nil
	}
	return r.Bounded.Estimates
}

// Scalar returns a single aggregate value by output column name,
// regardless of whether the result is exact or bounded.
func (r *Result) Scalar(name string) (float64, error) {
	if r.Rows != nil {
		return r.Rows.Scalar(name)
	}
	if r.Bounded != nil {
		for _, e := range r.Bounded.Estimates {
			if e.Spec.Name() == name {
				return e.Value(), nil
			}
		}
		return 0, fmt.Errorf("sciborq: no aggregate %q in bounded answer", name)
	}
	return 0, fmt.Errorf("sciborq: empty result")
}

// String renders a compact human-readable summary.
func (r *Result) String() string {
	var b strings.Builder
	if r.Bounded != nil {
		fmt.Fprintf(&b, "layer=%s exact=%t bound_met=%t elapsed=%v\n",
			r.Bounded.Layer, r.Bounded.Exact, r.Bounded.BoundMet, r.Elapsed)
		for _, e := range r.Bounded.Estimates {
			if e.Exact {
				fmt.Fprintf(&b, "  %s = %.6g (exact)\n", e.Spec.Name(), e.Value())
			} else {
				fmt.Fprintf(&b, "  %s = %.6g ± %.3g (%.0f%% conf, rel err %.2g%%)\n",
					e.Spec.Name(), e.Value(), e.Interval.HalfWidth,
					e.Interval.Level*100, e.RelError()*100)
			}
		}
		return b.String()
	}
	if r.Rows != nil {
		names := r.Rows.Table.Schema().Names()
		fmt.Fprintf(&b, "%s\n", strings.Join(names, "\t"))
		n := r.Rows.Len()
		const maxShow = 20
		for i := 0; i < n && i < maxShow; i++ {
			fmt.Fprintf(&b, "%s\n", strings.Join(r.Rows.Table.RowStrings(int32(i)), "\t"))
		}
		if n > maxShow {
			fmt.Fprintf(&b, "... (%d rows)\n", n)
		}
		return b.String()
	}
	return "(empty)"
}

// Exec parses and executes one SQL statement. Predicates are logged to
// the table's workload logger (steering future impressions); bounded
// aggregate statements run through the layer-escalation executor, other
// statements run exactly on base data.
func (db *DB) Exec(sql string) (*Result, error) {
	return db.ExecTenant(context.Background(), "", sql)
}

// ExecTenant is Exec under a per-query context and on behalf of a named
// tenant. Cancelling ctx (client disconnect, deadline) aborts the
// underlying morsel scans cooperatively, freeing the worker pool within
// one morsel boundary and returning ctx.Err(). The query's WHERE
// selection is cached in (and served from) the tenant's own recycler
// partition, so concurrent tenants cannot evict each other's warm
// working sets; the empty tenant uses the shared default partition.
func (db *DB) ExecTenant(ctx context.Context, tenant, sql string) (*Result, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStatementTenant(ctx, tenant, st, sql)
}

// ExecStatementTenant executes a parsed statement for a tenant under
// ctx: ExecTenant without the parse. The serving layer parses each
// request once, before admission, and executes it here; wire prepared
// statements re-bound with fresh literals arrive here too. sql is the
// text reported back in Result.SQL.
func (db *DB) ExecStatementTenant(ctx context.Context, tenant string, st *sqlparse.Statement, sql string) (*Result, error) {
	base, err := db.catalog.Get(st.Query.Table)
	if err != nil {
		return nil, err
	}
	// Log the query's predicate set — this is how SciBORQ adapts
	// impressions to the shifting focal point (§3.1, §4).
	if lg := db.Logger(st.Query.Table); lg != nil {
		lg.LogQuery(st.Query.Where)
	}
	opts := db.opts
	opts.Ctx = ctx
	start := time.Now()
	q, rec := st.Query, db.recyclerFor(tenant)
	var res *engine.Result
	switch {
	case (st.Bounds.HasErrorBound() || st.Bounds.HasTimeBound()) && len(q.Aggs) > 0 && q.GroupBy == "":
		ex, err := db.boundedExecutor(q.Table, base)
		if err != nil {
			return nil, err
		}
		ans, err := ex.Run(ctx, st, rec)
		if err != nil {
			return nil, err
		}
		return &Result{Bounded: ans, Elapsed: time.Since(start), SQL: sql}, nil
	case st.Bounds.HasTimeBound() && len(q.Aggs) == 0:
		ex, err := db.boundedExecutor(q.Table, base)
		if err != nil {
			return nil, err
		}
		res, err = boundedProjection(ex, st, opts, rec)
		if err != nil {
			return nil, err
		}
	default:
		// Unbounded queries, grouped aggregates (no grouped estimator
		// is wired yet) and WITHIN ERROR projections run exactly.
		res, err = recycler.Exec(rec, base, q, opts)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Rows: res, Elapsed: time.Since(start), SQL: sql}, nil
}

// boundedExecutor returns the cached bounded executor for a table; the
// cache keeps the executor's learned cost model alive across queries.
func (db *DB) boundedExecutor(name string, base *table.Table) (*bounded.Executor, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if ex, ok := db.execs[name]; ok {
		return ex, nil
	}
	ex, err := bounded.NewExecutor(base, db.hiers[name], db.cost, db.opts)
	if err != nil {
		return nil, err
	}
	if db.loadProbe != nil {
		ex.SetLoadProbe(db.loadProbe)
	}
	if db.gov != nil {
		ex.SetMemoryProbe(db.gov.DegradeFactor)
	}
	db.execs[name] = ex
	return ex, nil
}

// boundedProjection answers a projection under a time bound on the rung
// the bounded executor's WITHIN TIME pick chooses for it — the paper's
// replacement for LIMIT-N: "the equivalent query with a LIMIT 100
// clause will not return the first 100 results, but the 100 results
// satisfying the impression" (§3.2). An impression layer executes as a
// selection-vector scan over the base snapshot (engine.Filter) of the
// positions TimeLayer narrowed to the rows the predicate's bounds
// admit, so only the returned rows are ever copied — the impression
// itself is never materialised. When the budget affords the base table, the
// projection is the exact one.
func boundedProjection(ex *bounded.Executor, st *sqlparse.Statement, opts engine.ExecOptions, rec *recycler.Recycler) (*engine.Result, error) {
	q := st.Query
	snap, positions, exact := ex.TimeLayer(q, st.Bounds.MaxTime)
	if exact {
		return recycler.Exec(rec, snap, q, opts)
	}
	sel, scan, err := engine.Filter(snap, q.Pred(), positions, opts)
	if err != nil {
		return nil, err
	}
	if q.Limit > 0 && q.OrderBy == "" && len(sel) > q.Limit {
		sel = systematicSample(sel, q.Limit)
	}
	return engine.RunOnFilteredOpts(snap, sel, q, scan, opts)
}

// systematicSample picks n evenly spaced rows of sel (which has more
// than n entries), preserving order: a LIMIT without ORDER BY on an
// impression returns N representative sampled tuples rather than the
// storage-order prefix — not "the lucky N first" ones the paper
// criticises (§3.2). Deterministic, so results stay identical at every
// parallelism level.
func systematicSample(sel vec.Sel, n int) vec.Sel {
	out := make(vec.Sel, n)
	for i := 0; i < n; i++ {
		out[i] = sel[i*len(sel)/n]
	}
	return out
}
