package engine

import (
	"runtime"
	"testing"
	"time"
)

// TestMaxRowsWithinMonotonicInRate pins the property the time-bounded
// layer picker depends on: a parallel-calibrated model (lower or equal
// ns/row) never affords fewer rows — and therefore never a smaller
// impression layer — than a sequential one for the same budget.
func TestMaxRowsWithinMonotonicInRate(t *testing.T) {
	sequential := CostModel{NsPerRow: 100, FixedNs: 10_000}
	parallel := CostModel{NsPerRow: 25, FixedNs: 10_000}
	budgets := []time.Duration{
		20 * time.Microsecond, // below fixed overhead: both afford 0 rows
		50 * time.Microsecond,
		500 * time.Microsecond,
		5 * time.Millisecond,
		500 * time.Millisecond,
	}
	for _, budget := range budgets {
		s := sequential.MaxRowsWithin(budget)
		p := parallel.MaxRowsWithin(budget)
		if p < s {
			t.Errorf("budget %v: parallel model affords %d rows < sequential %d", budget, p, s)
		}
	}
	if got := sequential.MaxRowsWithin(5 * time.Microsecond); got != 0 {
		t.Errorf("sub-overhead budget affords %d rows, want 0", got)
	}
}

// TestCalibrateParallelNotPessimistic calibrates the real pipeline
// sequentially and in parallel and checks the parallel per-row rate is
// not meaningfully worse: morsel overhead must stay in the noise, so
// time-bounded layer picks never become more pessimistic just because
// parallelism was enabled. (On multi-core machines the parallel rate is
// strictly better; the generous factor keeps single-core CI honest.)
func TestCalibrateParallelNotPessimistic(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing in -short mode")
	}
	seq := Calibrate(200_000, ExecOptions{Parallelism: 1})
	par := Calibrate(200_000, ExecOptions{Parallelism: runtime.GOMAXPROCS(0)})
	if par.NsPerRow <= 0 || seq.NsPerRow <= 0 {
		t.Fatalf("calibration produced non-positive rates: seq=%v par=%v", seq, par)
	}
	const slack = 1.5
	if par.NsPerRow > seq.NsPerRow*slack {
		t.Errorf("parallel calibration %.2f ns/row vs sequential %.2f ns/row exceeds %.1fx slack",
			par.NsPerRow, seq.NsPerRow, slack)
	}
}
