package bounded

import (
	"testing"
	"time"

	"sciborq/internal/engine"
)

// TestParallelCalibratedModelNeverPicksSmallerLayer runs the same
// WITHIN TIME query through two executors that differ only in their
// cost model — one sequentially calibrated, one parallel-calibrated
// (lower ns/row, as a morsel-parallel scan measures) — and checks the
// parallel executor never settles for a smaller impression layer. This
// is the contract behind threading engine.Calibrate(rows, opts) into the façade:
// a stale single-core rate would make time promises pessimistic.
func TestParallelCalibratedModelNeverPicksSmallerLayer(t *testing.T) {
	tb, h, _ := fixture(t, 10_000)
	sequential := engine.CostModel{NsPerRow: 400, FixedNs: 2000}
	parallel := engine.CostModel{NsPerRow: 100, FixedNs: 2000}
	budgets := []time.Duration{
		10 * time.Microsecond,
		50 * time.Microsecond,
		200 * time.Microsecond,
		1 * time.Millisecond,
		20 * time.Millisecond,
	}
	for _, budget := range budgets {
		// Fresh executors per budget: WITHIN TIME feeds measured latency
		// back into the model, and the layer pick under test must depend
		// only on the initial calibration.
		exSeq, err := NewExecutor(tb, h, sequential, engine.ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		exPar, err := NewExecutor(tb, h, parallel, engine.ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		aSeq, err := runTime(exSeq, avgQuery(), budget)
		if err != nil {
			t.Fatal(err)
		}
		aPar, err := runTime(exPar, avgQuery(), budget)
		if err != nil {
			t.Fatal(err)
		}
		seqRows := aSeq.Trail[0].Rows
		parRows := aPar.Trail[0].Rows
		if parRows < seqRows {
			t.Errorf("budget %v: parallel-calibrated executor picked %d-row layer (%s), sequential picked %d-row layer (%s)",
				budget, parRows, aPar.Layer, seqRows, aSeq.Layer)
		}
	}
}

// TestParallelExecutorEquivalentAnswers checks bounded answers are
// row-identical across parallelism levels on every layer of the stack
// (layer contents are fixed by the hierarchy seed, so estimates from
// the same layer must match bit-for-bit).
func TestParallelExecutorEquivalentAnswers(t *testing.T) {
	tb, h, _ := fixture(t, 10_000)
	cost := engine.CostModel{NsPerRow: 10, FixedNs: 1000}
	exSeq, err := NewExecutor(tb, h, cost, engine.ExecOptions{Parallelism: 1, MorselRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	exPar, err := NewExecutor(tb, h, cost, engine.ExecOptions{Parallelism: 4, MorselRows: 512})
	if err != nil {
		t.Fatal(err)
	}
	aSeq, err := runErr(exSeq, avgQuery(), 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	aPar, err := runErr(exPar, avgQuery(), 0.05, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if aSeq.Layer != aPar.Layer {
		t.Fatalf("layer choice diverged: %s vs %s", aSeq.Layer, aPar.Layer)
	}
	if len(aSeq.Estimates) != len(aPar.Estimates) {
		t.Fatalf("estimate counts diverged: %d vs %d", len(aSeq.Estimates), len(aPar.Estimates))
	}
	for i := range aSeq.Estimates {
		if aSeq.Estimates[i].Value() != aPar.Estimates[i].Value() {
			t.Errorf("estimate %d diverged: %v vs %v",
				i, aSeq.Estimates[i].Value(), aPar.Estimates[i].Value())
		}
	}
}
