package bounded

import (
	"testing"
	"time"

	"sciborq/internal/engine"
)

// TestContentionModelDeratesPricing: the derated model predicts higher
// latency for the same rows, monotonically in both inflight count and
// queue wait.
func TestContentionModelDeratesPricing(t *testing.T) {
	base := engine.CostModel{NsPerRow: 10, FixedNs: 1000}
	idle, f := contentionModel(base, LoadInfo{InFlight: 1})
	if f != 1 || idle != base {
		t.Fatalf("idle load must not derate: got %+v factor %v", idle, f)
	}
	k4, f4 := contentionModel(base, LoadInfo{InFlight: 4})
	if f4 != 4 || k4.NsPerRow != 40 {
		t.Fatalf("4 in-flight queries must quadruple the per-row rate: got %+v factor %v", k4, f4)
	}
	qw, _ := contentionModel(base, LoadInfo{InFlight: 1, QueueWait: time.Millisecond})
	if qw.FixedNs != base.FixedNs+1e6 {
		t.Fatalf("queue wait must join the fixed overhead: got %v", qw.FixedNs)
	}
	// Monotonicity: more contention, fewer affordable rows.
	budget := 2 * time.Millisecond
	if k4.MaxRowsWithin(budget) >= base.MaxRowsWithin(budget) {
		t.Fatal("contended model must afford fewer rows than the idle one")
	}
	if qw.MaxRowsWithin(budget) >= base.MaxRowsWithin(budget) {
		t.Fatal("queue-delayed model must afford fewer rows than the idle one")
	}
}

// TestTimeBoundedPicksSmallerLayerUnderLoad: the same budget that
// affords a big layer idle must degrade to a smaller layer when the
// probe reports saturation — quality degrades, the promise holds.
func TestTimeBoundedPicksSmallerLayerUnderLoad(t *testing.T) {
	tb, h, _ := fixture(t, 50_000)
	// A deterministic model (no wall-clock calibration flakiness): 100
	// ns/row means a 2ms budget affords 20_000 rows — the 5_000-row L0
	// layer fits idle.
	ex, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 100, FixedNs: 0}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	budget := 2 * time.Millisecond
	q := avgQuery()

	idle, err := runTime(ex, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Learning may have nudged the model; rebuild for a clean contended
	// pick with the same starting model.
	ex2, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 100, FixedNs: 0}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex2.SetLoadProbe(func() LoadInfo { return LoadInfo{InFlight: 16} })
	loaded, err := runTime(ex2, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Trail[0].Rows >= idle.Trail[0].Rows {
		t.Fatalf("contended pick (%d rows) must be smaller than idle pick (%d rows)",
			loaded.Trail[0].Rows, idle.Trail[0].Rows)
	}

	// A queue wait larger than the whole budget forces the smallest
	// layer (best effort) — never a bigger one.
	ex3, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 100, FixedNs: 0}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex3.SetLoadProbe(func() LoadInfo { return LoadInfo{InFlight: 2, QueueWait: time.Second} })
	swamped, err := runTime(ex3, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	if swamped.Trail[0].Rows > loaded.Trail[0].Rows {
		t.Fatalf("swamped pick (%d rows) exceeded the merely-contended pick (%d rows)",
			swamped.Trail[0].Rows, loaded.Trail[0].Rows)
	}
}

// TestObserveDeflatesByContentionFactor: a latency measured under a
// factor-K pick must feed the EWMA divided by K, so the base model does
// not double-count contention.
func TestObserveDeflatesByContentionFactor(t *testing.T) {
	_, _, ex := fixture(t, 2000)
	start := ex.CostModel()
	ex.observe(1000, time.Millisecond, 4)
	deflated := ex.CostModel().NsPerRow
	want := (1-learningRate)*start.NsPerRow + learningRate*(1e6-start.FixedNs)/(1000*4)
	if diff := deflated - want; diff > 1 || diff < -1 {
		t.Fatalf("deflated EWMA wrong: got %v, want %v", deflated, want)
	}
}
