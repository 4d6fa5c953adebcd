package sciborq

import (
	"strings"
	"testing"

	"sciborq/internal/engine"
)

func TestResultStringTruncatesLongProjections(t *testing.T) {
	db := Open(WithCostModel(engine.CostModel{NsPerRow: 10, FixedNs: 100}))
	if _, err := db.CreateTable("t", Schema{{Name: "x", Type: Float64}}); err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 50)
	for i := range rows {
		rows[i] = Row{float64(i)}
	}
	if err := db.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	if !strings.Contains(out, "... (50 rows)") {
		t.Fatalf("long result not truncated:\n%s", out)
	}
}

func TestBoundedProjectionWithoutHierarchyFallsToBase(t *testing.T) {
	db := Open(WithCostModel(engine.CostModel{NsPerRow: 10, FixedNs: 100}))
	if _, err := db.CreateTable("t", Schema{{Name: "x", Type: Float64}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("t", []Row{{1.0}, {2.0}, {3.0}}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT x FROM t WITHIN TIME 1m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil || res.Rows.Len() != 3 {
		t.Fatalf("hierless bounded projection = %+v", res)
	}
}

func TestBoundedGroupByRunsExact(t *testing.T) {
	// Bounds on grouped aggregates are not supported by the estimator;
	// the engine runs them exactly rather than failing.
	db := openSky(t, 10000, Uniform)
	res, err := db.Exec("SELECT COUNT(*) AS n FROM PhotoObjAll GROUP BY type WITHIN ERROR 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil || res.Bounded != nil {
		t.Fatal("grouped bounded query should degrade to exact execution")
	}
}

func TestStatementReuse(t *testing.T) {
	db := openSky(t, 10000, Uniform)
	// ExecStatement with a pre-parsed statement is the hot path for
	// repeated exploration queries.
	res1, err := db.Exec("SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra BETWEEN 150 AND 160")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := db.Exec("SELECT COUNT(*) AS n FROM PhotoObjAll WHERE ra BETWEEN 150 AND 160")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := res1.Scalar("n")
	b, _ := res2.Scalar("n")
	if a != b {
		t.Fatalf("repeated exact query disagreed: %v vs %v", a, b)
	}
}

// TestLimitZeroRefused: LIMIT 0 is a bound the user wrote, and the
// engine reads Limit 0 as "no limit", so Exec must refuse it instead
// of returning the whole table.
func TestLimitZeroRefused(t *testing.T) {
	db := openSky(t, 1000, Uniform)
	res, err := db.Exec("SELECT ra FROM PhotoObjAll ORDER BY ra LIMIT 0")
	if err == nil {
		t.Fatalf("LIMIT 0 accepted, returned %d rows", res.Rows.Len())
	}
	if !strings.Contains(err.Error(), "LIMIT must be positive") {
		t.Fatalf("LIMIT 0 refused with %v, want a LIMIT error", err)
	}
	res, err = db.Exec("SELECT ra FROM PhotoObjAll ORDER BY ra LIMIT 1")
	if err != nil || res.Rows.Len() != 1 {
		t.Fatalf("LIMIT 1 = %v, %v", res, err)
	}
}
