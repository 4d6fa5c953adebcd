// Package engine is the column-at-a-time execution engine of SciBORQ:
// filters produce selection vectors, aggregation consumes whole columns,
// and every intermediate is materialised — the property the
// paper relies on to re-target an in-flight query at a different
// impression layer (§3.2).
//
// Execution is morsel-driven and parallel, through one scan loop (see
// scan.go): a scan is a list of granule-aligned parts of fixed-size
// morsels (ExecOptions.MorselRows, default 64K rows) — every row of a
// morsel for a base-table scan, the listed positions in it for a scan of
// an impression or a cached selection — that a worker pool sized by
// ExecOptions.Parallelism pulls from a shared queue. Each part filters
// its rows and folds partial aggregate states; partials merge in
// ascending morsel order, so every result is bit-for-bit reproducible at
// any parallelism level — Parallelism changes latency, never values.
// Filter and EstimateScanRows take the positions to scan, nil meaning
// every row. See ExecOptions for details.
package engine

import (
	"fmt"

	"sciborq/internal/expr"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Avg
	Min
	Max
	StdDev
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case StdDev:
		return "STDDEV"
	}
	return "?"
}

// AggSpec is one aggregate in a SELECT list.
type AggSpec struct {
	Func  AggFunc
	Arg   expr.Scalar // nil only for COUNT(*)
	Alias string
}

// Name returns the output column name for the aggregate.
func (a AggSpec) Name() string {
	if a.Alias != "" {
		return a.Alias
	}
	if a.Arg == nil {
		return fmt.Sprintf("%s(*)", a.Func)
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}

// Query is the logical query consumed by the executor: a single-table
// select with WHERE, aggregates or projection, GROUP BY, ORDER BY and
// LIMIT — the shape of the SkyServer workload.
type Query struct {
	Table   string
	Where   expr.Predicate // nil means TRUE
	Aggs    []AggSpec      // aggregate query when non-empty
	Select  []string       // projection columns when Aggs is empty
	GroupBy string         // optional grouping column (BIGINT or VARCHAR)
	OrderBy string         // optional ordering column: a projected column, or an aggregate output or the GROUP BY column of a grouped query
	Desc    bool           // descending order
	Limit   int            // 0 = unlimited
}

// Validate performs shape checks that do not need a catalog.
func (q Query) Validate() error {
	if q.Table == "" {
		return fmt.Errorf("engine: query has no table")
	}
	if len(q.Aggs) == 0 && len(q.Select) == 0 {
		return fmt.Errorf("engine: query selects nothing")
	}
	if len(q.Aggs) > 0 && len(q.Select) > 0 {
		return fmt.Errorf("engine: mixing aggregates and plain projection is not supported")
	}
	if q.GroupBy != "" && len(q.Aggs) == 0 {
		return fmt.Errorf("engine: GROUP BY requires aggregates")
	}
	if q.Limit < 0 {
		return fmt.Errorf("engine: negative LIMIT %d", q.Limit)
	}
	return nil
}

// Pred returns the query predicate, substituting TRUE for nil.
func (q Query) Pred() expr.Predicate {
	if q.Where == nil {
		return expr.TruePred{}
	}
	return q.Where
}
