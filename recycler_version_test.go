package sciborq

import "testing"

// Guards for the versioned-view contract: impression versions bump on
// every sample mutation, and the DB's cached bounded executor reads
// fresh views per query instead of holding stale layer state.

// TestLoadBumpsImpressionVersion checks a load moves the version of the
// stream layer it feeds, so any consumer keyed by (impression, version)
// sees the new sample.
func TestLoadBumpsImpressionVersion(t *testing.T) {
	db := ingestFixture(t)
	im := db.Hierarchy("T").Layers()[0]
	v1 := im.Version()
	if err := db.Load("T", ingestBatch(1)); err != nil {
		t.Fatal(err)
	}
	if im.Version() == v1 {
		t.Fatal("load did not bump the impression version")
	}
	if v := im.View(); v.Version != im.Version() {
		t.Fatalf("view version %d, impression version %d", v.Version, im.Version())
	}
}

// TestCachedBoundedExecutorSeesVersionBumps asserts the executor cached
// in the DB does not need rebuilding when the hierarchy moves: the same
// executor instance answers from the refreshed sample because it takes
// views per query.
func TestCachedBoundedExecutorSeesVersionBumps(t *testing.T) {
	db := ingestFixture(t)
	base, err := db.Table("T")
	if err != nil {
		t.Fatal(err)
	}
	ex1, err := db.boundedExecutor("T", base)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) AS c FROM T WITHIN ERROR 0.2 CONFIDENCE 0.95"
	r1, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := r1.Bounded.Estimates[0].Value()

	// Grow the base by 3x: a COUNT(*) estimate from any layer must move
	// with it, through the *same* cached executor.
	for b := 1; b <= 30; b++ {
		if err := db.Load("T", ingestBatch(uint64(b))); err != nil {
			t.Fatal(err)
		}
	}
	ex2, err := db.boundedExecutor("T", base)
	if err != nil {
		t.Fatal(err)
	}
	if ex1 != ex2 {
		t.Fatal("executor cache rebuilt — the point is that it must NOT need rebuilding")
	}
	r2, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	after := r2.Bounded.Estimates[0].Value()
	want := float64(ingestSeedRows + 30*ingestBatchRows)
	if after == before {
		t.Fatalf("estimate frozen at %v despite 3x growth", after)
	}
	if diff := after - want; diff > want/2 || diff < -want/2 {
		t.Fatalf("post-growth COUNT estimate %v too far from %v", after, want)
	}
}
