package engine

import (
	"time"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// CostModel predicts query latency from row counts. SciBORQ's
// time-bounded processing (§3.2) chooses the largest impression layer
// whose predicted latency fits the user's bound, so the model is
// calibrated on this machine rather than assumed.
type CostModel struct {
	// NsPerRow is the calibrated cost of scanning + filtering +
	// aggregating one row, in nanoseconds.
	NsPerRow float64
	// FixedNs is the per-query overhead independent of input size.
	FixedNs float64
}

// DefaultCostModel is a conservative fallback used before calibration.
func DefaultCostModel() CostModel {
	return CostModel{NsPerRow: 12, FixedNs: 20_000}
}

// Predict returns the predicted latency of scanning n rows.
func (c CostModel) Predict(n int) time.Duration {
	return time.Duration(c.FixedNs + c.NsPerRow*float64(n))
}

// MaxRowsWithin returns the largest row count whose predicted latency
// stays within budget (0 when even the fixed overhead exceeds it).
func (c CostModel) MaxRowsWithin(budget time.Duration) int {
	ns := float64(budget.Nanoseconds()) - c.FixedNs
	if ns <= 0 {
		return 0
	}
	if c.NsPerRow <= 0 {
		return int(^uint(0) >> 1)
	}
	return int(ns / c.NsPerRow)
}

// Calibrate measures the per-row cost of a representative
// filter+aggregate pipeline on this machine under opts and returns a
// fitted model; rows controls the calibration table size (>= 2 sizes
// are probed). The probe runs the real morsel pipeline (RunOnOpts with
// a filter + SUM query), so goroutine fan-out and merge overheads are
// priced in and the time-bound layer picker sees the rows/sec the
// configured executor actually delivers.
func Calibrate(rows int, opts ExecOptions) CostModel {
	if rows < 4096 {
		rows = 4096
	}
	// BOTH probes must run in the fully parallel regime at the caller's
	// real morsel granule: probing a shrunken granule would over-promise
	// small scans, and mixing a partially parallel small probe with a
	// fully parallel big probe would corrupt the secant fit (with
	// near-linear scaling the two wall times converge and the fitted
	// per-row rate collapses toward zero — an over-promise of orders of
	// magnitude). small = rows/4, so rows >= 4·workers·granule keeps
	// even the small probe spanning every worker. Capped so calibration
	// stays cheap on very wide machines; beyond the cap the probe spans
	// fewer morsels than workers and errs toward under-promising, the
	// safe direction for WITHIN TIME.
	if w := opts.workers(); w > 1 {
		span := 4 * w * opts.morselRows()
		const maxCalibrationRows = 4 << 20
		if span > maxCalibrationRows {
			span = maxCalibrationRows
		}
		if rows < span {
			rows = span
		}
	}
	small := rows / 4
	tSmall, scannedSmall := calibrationRun(small, opts)
	tBig, scannedBig := calibrationRun(rows, opts)
	if scannedBig <= scannedSmall {
		// Zone maps cannot prune the uniform calibration data, so this
		// is unreachable; guarded so a future probe change cannot make
		// the fit divide by zero.
		scannedSmall, scannedBig = small, rows
	}
	perRow := float64(tBig-tSmall) / float64(scannedBig-scannedSmall)
	if perRow <= 0 {
		perRow = 1
	}
	fixed := float64(tSmall) - perRow*float64(scannedSmall)
	if fixed < 0 {
		fixed = 0
	}
	return CostModel{NsPerRow: perRow, FixedNs: fixed}
}

// calibrationRun times one scan+filter+sum over n synthetic rows under
// opts and returns nanoseconds (the median of three runs) plus the
// rows the executor actually evaluated (after zone-map pruning), so
// the secant fit prices pruning-aware rows/sec.
func calibrationRun(n int, opts ExecOptions) (int64, int) {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%997) / 997
	}
	tb := table.MustNew("calibration", table.Schema{{Name: "x", Type: column.Float64}})
	if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", data)}); err != nil {
		panic(err)
	}
	q := Query{
		Table: "calibration",
		Where: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 0.5},
		Aggs:  []AggSpec{{Func: Sum, Arg: expr.ColRef{Name: "x"}}},
	}
	var times []int64
	scanned := n
	for r := 0; r < 3; r++ {
		start := time.Now()
		res, err := RunOnOpts(tb, q, opts)
		if err != nil {
			panic(err) // static query over a static schema; cannot happen
		}
		times = append(times, time.Since(start).Nanoseconds())
		scanned = res.ScannedRows
	}
	// median of 3
	a, b, c := times[0], times[1], times[2]
	switch {
	case (a >= b && a <= c) || (a <= b && a >= c):
		return a, scanned
	case (b >= a && b <= c) || (b <= a && b >= c):
		return b, scanned
	default:
		return c, scanned
	}
}
