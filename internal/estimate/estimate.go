// Package estimate turns query results computed on an impression into
// population estimates with confidence intervals — the "quality of
// results" machinery of §3.2.
//
// There is one estimator path: a layer is a SelLayer, sorted row
// positions into a base table with row-aligned weights — the shape of
// impression.View. A standalone weighted table is a SelLayer whose
// positions are 0..n-1 over that table. The predicate scan may visit a
// narrowed subset of the positions (SelLayer.Scan, from
// impression.View.Narrow, with its sample indices in SelLayer.ScanIdx)
// holding every row that can match; the estimators still describe the
// whole sample, so the estimates are those of a scan over every
// position.
// Exact answers are not estimated here: the bounded executor's base
// rung runs the engine's exact execution.
//
// Uniform layers use the classical CLT with finite-population
// correction. Biased layers carry per-tuple bias weights w_i
// (proportional to inclusion probability); estimation uses the Hájek
// self-normalised estimator with importance weights u_i = 1/w_i and
// delta-method (linearisation) variance:
//
//	μ̂ = Σ u_i g_i / Σ u_i
//	Var(μ̂) ≈ Σ u_i² (g_i − μ̂)² / (Σ u_i)²
//
// which reduces to the classical estimator when all weights are equal.
// Interval coverage is validated empirically in the test suite.
package estimate

import (
	"sciborq/internal/engine"
	"sciborq/internal/stats"
)

// Estimate is one aggregate estimated from a sample layer.
type Estimate struct {
	Spec     engine.AggSpec
	Interval stats.Interval
	// Exact marks estimates computed on base data (zero error).
	Exact bool
	// SampleRows is the number of sample rows that satisfied the query
	// predicate (the support of the estimate); for exact estimates, the
	// matched base rows.
	SampleRows int
}

// Value returns the point estimate.
func (e Estimate) Value() float64 { return e.Interval.Estimate }

// RelError returns the relative half-width of the interval (0 if exact).
func (e Estimate) RelError() float64 {
	if e.Exact {
		return 0
	}
	return e.Interval.RelativeError()
}

// GroupEstimate is the estimate set for one group key.
type GroupEstimate struct {
	Key       string
	Estimates []Estimate
}
