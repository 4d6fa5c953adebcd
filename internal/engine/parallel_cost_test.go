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
	// Calibration is wall-clock timing, so a neighbouring process that
	// steals a core mid-probe inflates whichever side it lands on. The
	// two sides are interleaved and each keeps its best of several
	// rounds: the minimum is the estimate least disturbed by outside
	// load, and it is taken the same way on both sides.
	const rounds = 5
	var seq, par CostModel
	for r := 0; r < rounds; r++ {
		s := Calibrate(200_000, ExecOptions{Parallelism: 1})
		p := Calibrate(200_000, ExecOptions{Parallelism: runtime.GOMAXPROCS(0)})
		if p.NsPerRow <= 0 || s.NsPerRow <= 0 {
			t.Fatalf("calibration produced non-positive rates: seq=%v par=%v", s, p)
		}
		if r == 0 || s.NsPerRow < seq.NsPerRow {
			seq = s
		}
		if r == 0 || p.NsPerRow < par.NsPerRow {
			par = p
		}
	}
	const slack = 1.5
	if par.NsPerRow > seq.NsPerRow*slack {
		t.Errorf("parallel calibration %.2f ns/row vs sequential %.2f ns/row exceeds %.1fx slack",
			par.NsPerRow, seq.NsPerRow, slack)
	}
}
