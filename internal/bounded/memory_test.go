package bounded

import (
	"testing"
	"time"

	"sciborq/internal/engine"
)

// TestTimeBoundedDegradesUnderMemoryPressure: with a memory probe
// reporting a degrade factor the same budget must pick a smaller
// impression layer than the unpressured executor — the governor's
// quality-before-availability knob, applied at layer-pick time.
func TestTimeBoundedDegradesUnderMemoryPressure(t *testing.T) {
	tb, h, _ := fixture(t, 50_000)
	model := engine.CostModel{NsPerRow: 100, FixedNs: 0}
	// 600µs at 100 ns/row affords 6_000 rows unpressured — the 5_000-row
	// L0 layer fits; under a ×4 degrade it affords 1_500 and the pick
	// must fall to L1.
	budget := 600 * time.Microsecond
	q := avgQuery()

	ex, err := NewExecutor(tb, h, model, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	calm, err := runTime(ex, q, budget)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh executor per pick: EWMA learning must not leak between the
	// compared runs.
	ex2, err := NewExecutor(tb, h, model, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex2.SetMemoryProbe(func() float64 { return 4 }) // Critical
	pressed, err := runTime(ex2, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	if pressed.Trail[0].Rows >= calm.Trail[0].Rows {
		t.Fatalf("pressured pick (%d rows) must be smaller than calm pick (%d rows)",
			pressed.Trail[0].Rows, calm.Trail[0].Rows)
	}

	// Factor 1 (Nominal) must be a no-op.
	ex3, err := NewExecutor(tb, h, model, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex3.SetMemoryProbe(func() float64 { return 1 })
	nominal, err := runTime(ex3, q, budget)
	if err != nil {
		t.Fatal(err)
	}
	if nominal.Trail[0].Rows != calm.Trail[0].Rows {
		t.Fatalf("nominal probe changed the pick: %d vs %d rows",
			nominal.Trail[0].Rows, calm.Trail[0].Rows)
	}
}

// TestObserveDeflatesByMemoryFactor: latency measured under a degrade
// factor must not teach the model an inflated per-row rate — the probe
// factor folds into the same deflation the contention path uses.
func TestObserveDeflatesByMemoryFactor(t *testing.T) {
	tb, h, _ := fixture(t, 50_000)
	model := engine.CostModel{NsPerRow: 100, FixedNs: 0}
	ex, err := NewExecutor(tb, h, model, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex.SetMemoryProbe(func() float64 { return 4 })
	if _, err := runTime(ex, avgQuery(), 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// The real scan runs far faster than 100 ns/row, so an observation
	// NOT deflated by the factor would still drag the rate down; the
	// stronger invariant is that the learned rate stays within the
	// plausible uncontended band — specifically it must not exceed the
	// starting rate (pressure must never teach the model to be slower).
	if got := ex.CostModel().NsPerRow; got > model.NsPerRow {
		t.Fatalf("learned rate %v exceeds starting rate %v — pressure leaked into the EWMA", got, model.NsPerRow)
	}
}
