package sciborq

import (
	"fmt"
	"testing"

	"sciborq/internal/governor"
	"sciborq/internal/xrand"
)

// govFixture builds a DB under a global memory governor with its
// in-memory cache tier populated: distinct WHERE selections fill the
// recycler.
func govFixture(t *testing.T) *DB {
	t.Helper()
	db := Open(testCost(), WithSeed(5), WithMemoryBudget(1<<20))
	if _, err := db.CreateTable("T", Schema{
		{Name: "ra", Type: Float64},
		{Name: "r", Type: Float64},
	}); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	rows := make([]Row, 4000)
	for i := range rows {
		rows[i] = Row{rng.Float64(), rng.Float64() * 10}
	}
	if err := db.Load("T", rows); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) AS c FROM T WHERE ra < %g", 0.1+float64(i)*0.1)
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestGovernorShedsRealTiersInOrder drives the acceptance criterion
// end to end against the real caches: under an injected pressure
// signal the governor sheds the recycler and the tier reports empty
// afterwards.
func TestGovernorShedsRealTiersInOrder(t *testing.T) {
	db := govFixture(t)
	g := db.Governor()
	if g == nil {
		t.Fatal("WithMemoryBudget did not install a governor")
	}

	s := g.Stats()
	want := []string{"recycler"}
	if len(s.TierUsages) != len(want) {
		t.Fatalf("registered tiers = %v, want exactly %v", s.TierUsages, want)
	}
	for _, tier := range want {
		if s.TierUsages[tier] <= 0 {
			t.Fatalf("tier %s empty before pressure: %+v", tier, s.TierUsages)
		}
	}

	g.InjectPressure(governor.Critical)
	if lv := g.Level(); lv != governor.Critical {
		t.Fatalf("level = %v, want Critical", lv)
	}
	if u := g.Usage(); u != 0 {
		t.Fatalf("forced critical left %d bytes across tiers", u)
	}
	log := g.ShedLog()
	if len(log) != len(want) {
		t.Fatalf("shed log = %v, want one event per tier", log)
	}
	for i, ev := range log {
		if ev.Tier != want[i] || ev.Freed <= 0 {
			t.Fatalf("shed[%d] = %+v, want tier %s with freed > 0", i, ev, want[i])
		}
	}

	// Shed caches are an optimisation, never a dependency: queries still
	// answer correctly (and repopulate the tiers) after the purge.
	g.ReleasePressure()
	res, err := db.Exec("SELECT COUNT(*) AS c FROM T WHERE ra < 0.5")
	if err != nil {
		t.Fatalf("query after shed failed: %v", err)
	}
	if v, err := res.Scalar("c"); err != nil || v <= 0 || v >= 4000 {
		t.Fatalf("post-shed COUNT = %v, %v", v, err)
	}
	if lv := g.Level(); lv != governor.Nominal {
		t.Fatalf("released level = %v, want Nominal", lv)
	}
}

// TestGovernorLoadPathCheck: Load triggers a governor check, so real
// over-budget usage sheds without any serving-layer involvement.
func TestGovernorLoadPathCheck(t *testing.T) {
	db := govFixture(t)
	g := db.Governor()
	before := g.Stats().Checks
	if err := db.Load("T", []Row{{0.5, 5.0}}); err != nil {
		t.Fatal(err)
	}
	if after := g.Stats().Checks; after <= before {
		t.Fatalf("Load did not run a governor check: %d -> %d", before, after)
	}
}

// TestGovernorTiersWithDataDir pins the whole registration: a durable
// DB adds the granule cache ahead of the in-memory recycler tier, and
// nothing else is registered.
func TestGovernorTiersWithDataDir(t *testing.T) {
	db := Open(testCost(), WithMemoryBudget(1<<20), WithDataDir(t.TempDir()))
	defer db.Close()
	got := db.Governor().Stats().TierUsages
	want := []string{"storage.granules", "recycler"}
	if len(got) != len(want) {
		t.Fatalf("registered tiers = %v, want exactly %v", got, want)
	}
	for _, tier := range want {
		if _, ok := got[tier]; !ok {
			t.Fatalf("tier %s not registered: %v", tier, got)
		}
	}
}
