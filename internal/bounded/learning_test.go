package bounded

import (
	"testing"
	"time"

	"sciborq/internal/engine"
)

func TestObserveMovesModelTowardObservation(t *testing.T) {
	_, _, ex := fixture(t, 2000)
	before := ex.CostModel().NsPerRow // 10 in the fixture
	// Observe a much slower reality: 1000 rows in 1ms = 1000 ns/row.
	ex.observe(1000, time.Millisecond, 1)
	after := ex.CostModel().NsPerRow
	if after <= before {
		t.Fatalf("model did not learn: %v -> %v", before, after)
	}
	want := (1-learningRate)*before + learningRate*(1e6-ex.CostModel().FixedNs)/1000
	if diff := after - want; diff > 1 || diff < -1 {
		t.Fatalf("EWMA wrong: got %v, want %v", after, want)
	}
}

func TestObserveSkipsTinyAndNegativeInputs(t *testing.T) {
	_, _, ex := fixture(t, 2000)
	before := ex.CostModel()
	ex.observe(10, time.Second, 1) // below the 64-row floor
	ex.observe(1000, 0, 1)         // below fixed overhead
	after := ex.CostModel()
	if before != after {
		t.Fatalf("model changed on degenerate input: %+v -> %+v", before, after)
	}
}

func TestTimeBoundedLearnsFromRepeatedRuns(t *testing.T) {
	// Start with a model that wildly underestimates (0.01 ns/row): the
	// executor initially picks base data for small budgets; after a few
	// observed runs the learned rate rises by orders of magnitude.
	tb, h, _ := fixture(t, 50000)
	ex, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 0.01, FixedNs: 100}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := avgQuery()
	first, err := runTime(ex, q, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := runTime(ex, q, 200*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	learned := ex.CostModel().NsPerRow
	if learned < 1 {
		t.Fatalf("model stayed at %v ns/row after observing real runs", learned)
	}
	last, err := runTime(ex, q, 200*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// With an honest model the promise for the chosen layer cannot be
	// the near-zero initial fantasy any more.
	if last.Promised <= first.Promised && last.Trail[0].Rows == first.Trail[0].Rows {
		t.Fatalf("promises did not adjust: first %v (%d rows), last %v (%d rows)",
			first.Promised, first.Trail[0].Rows, last.Promised, last.Trail[0].Rows)
	}
}

func TestLearningIsSharedAcrossQueries(t *testing.T) {
	// The executor's model is per-executor, so two queries benefit from
	// each other's observations.
	tb, h, _ := fixture(t, 30000)
	ex, err := NewExecutor(tb, h, engine.CostModel{NsPerRow: 0.01, FixedNs: 100}, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := runTime(ex, avgQuery(), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	rate := ex.CostModel().NsPerRow
	if rate <= 0.01 {
		t.Fatal("no learning happened")
	}
}
