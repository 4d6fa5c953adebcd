package sciborq

import (
	"math"
	"testing"

	"sciborq/internal/engine"
	"sciborq/internal/skyserver"
)

// equivDB builds a deterministic SkyServer-loaded DB at the given
// parallelism. Identical seeds everywhere, so any result divergence
// between two instances can only come from the executor. extra options
// (e.g. WithRecyclerBudget) apply on top.
func equivDB(t *testing.T, workers int, extra ...Option) *DB {
	t.Helper()
	opts := []Option{
		WithCostModel(engine.CostModel{NsPerRow: 15, FixedNs: 5000}),
		WithSeed(42),
		WithExecOptions(engine.ExecOptions{Parallelism: workers, MorselRows: 4096}),
	}
	opts = append(opts, extra...)
	db := Open(opts...)
	sky, err := skyserver.New(skyserver.DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	fact, err := sky.Catalog.Get("PhotoObjAll")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachTable(fact); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildImpressions("PhotoObjAll", ImpressionConfig{
		Sizes: []int{4000, 400}, Policy: Uniform,
	}); err != nil {
		t.Fatal(err)
	}
	gen := sky.Generator(nil)
	if err := db.Load("PhotoObjAll", gen.NextBatch(40_000)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExecParallelSequentialEquivalence runs exact SQL through two DBs
// that differ only in parallelism and requires identical rendered
// results (String() is exact for identical floating-point bits).
func TestExecParallelSequentialEquivalence(t *testing.T) {
	seqDB := equivDB(t, 1)
	parDB := equivDB(t, 4)
	queries := []string{
		"SELECT COUNT(*) FROM PhotoObjAll",
		"SELECT COUNT(*), AVG(r) AS m, SUM(r) AS s FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180",
		"SELECT MIN(r) AS lo, MAX(r) AS hi FROM PhotoObjAll WHERE dec > 10",
		"SELECT AVG(r) AS m FROM PhotoObjAll WHERE type = 'GALAXY'",
		"SELECT COUNT(*), AVG(r) AS m FROM PhotoObjAll WHERE ra BETWEEN 120 AND 240 GROUP BY type",
		"SELECT objID, ra FROM PhotoObjAll WHERE ra BETWEEN 170 AND 171 ORDER BY ra LIMIT 25",
	}
	for _, sql := range queries {
		seq, err := seqDB.Exec(sql)
		if err != nil {
			t.Fatalf("sequential %q: %v", sql, err)
		}
		par, err := parDB.Exec(sql)
		if err != nil {
			t.Fatalf("parallel %q: %v", sql, err)
		}
		if seq.String() != par.String() {
			t.Errorf("%q diverged:\nsequential:\n%s\nparallel:\n%s", sql, seq, par)
		}
	}
}

// TestErrorBoundedParallelSequentialEquivalence runs a WITHIN ERROR
// query on both DBs; impression layers are seed-identical, so the
// bounded estimates must match exactly too.
func TestErrorBoundedParallelSequentialEquivalence(t *testing.T) {
	seqDB := equivDB(t, 1)
	parDB := equivDB(t, 4)
	const sql = "SELECT AVG(r) AS m FROM PhotoObjAll WHERE ra BETWEEN 120 AND 240 WITHIN ERROR 0.2"
	seq, err := seqDB.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parDB.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Bounded == nil || par.Bounded == nil {
		t.Fatal("expected bounded answers")
	}
	if seq.Bounded.Layer != par.Bounded.Layer {
		t.Fatalf("layer diverged: %s vs %s", seq.Bounded.Layer, par.Bounded.Layer)
	}
	sv, err := seq.Scalar("m")
	if err != nil {
		t.Fatal(err)
	}
	pv, err := par.Scalar("m")
	if err != nil {
		t.Fatal(err)
	}
	if sv != pv {
		t.Fatalf("bounded estimate diverged: %v vs %v", sv, pv)
	}
}

// TestBoundedExactRungMatchesExact: a bounded query that falls to the
// base rung runs the unbounded exact execution, so its answer is the
// exact answer bit for bit — cached or not, at every parallelism, for a
// plain scan, a cone, and a refinement served from the cone's cached
// selection. Each estimate's SampleRows is the matched row count.
func TestBoundedExactRungMatchesExact(t *testing.T) {
	const aggs = "SELECT COUNT(*) AS n, SUM(r) AS s, AVG(r) AS a, MIN(r) AS lo, STDDEV(r) AS sd FROM PhotoObjAll"
	wheres := []string{"", " WHERE fGetNearbyObjEq(165, 20, 5)", " WHERE fGetNearbyObjEq(165, 20, 5) AND r < 19"}
	for _, recycle := range []bool{true, false} {
		for _, workers := range []int{1, 4} {
			var extra []Option
			if !recycle {
				extra = append(extra, WithRecyclerBudget(0))
			}
			db := equivDB(t, workers, extra...)
			// In order, so the refinement finds the cone cached.
			for _, where := range wheres {
				bounded, err := db.Exec(aggs + where + " WITHIN ERROR 1e-9")
				if err != nil {
					t.Fatal(err)
				}
				exact, err := db.Exec(aggs + where)
				if err != nil {
					t.Fatal(err)
				}
				if bounded.Bounded == nil || !bounded.Bounded.Exact {
					t.Fatalf("recycle=%t workers=%d %q: no exact base answer", recycle, workers, where)
				}
				n, err := exact.Scalar("n")
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range bounded.Estimates() {
					want, err := exact.Scalar(e.Spec.Name())
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(e.Value()) != math.Float64bits(want) {
						t.Errorf("recycle=%t workers=%d %q %s: bounded %v, exact %v",
							recycle, workers, where, e.Spec.Name(), e.Value(), want)
					}
					if e.SampleRows != int(n) {
						t.Errorf("recycle=%t workers=%d %q %s: SampleRows %d, matched %v",
							recycle, workers, where, e.Spec.Name(), e.SampleRows, n)
					}
				}
			}
			if st := db.RecyclerStats(); recycle && st.SubsumedHits == 0 {
				t.Errorf("workers=%d: refinement never served from the cached cone: %+v", workers, st)
			}
		}
	}
}

// TestWithParallelismOption pins the façade default (parallel on) and
// the option plumbing.
func TestWithParallelismOption(t *testing.T) {
	db := Open(WithCostModel(engine.CostModel{NsPerRow: 15, FixedNs: 5000}))
	if got := db.ExecOptions().Parallelism; got != 0 {
		t.Fatalf("default Parallelism = %d, want 0 (= GOMAXPROCS)", got)
	}
	db = Open(
		WithCostModel(engine.CostModel{NsPerRow: 15, FixedNs: 5000}),
		WithParallelism(3),
	)
	if got := db.ExecOptions().Parallelism; got != 3 {
		t.Fatalf("WithParallelism(3) → %d", got)
	}
}
