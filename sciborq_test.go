package sciborq

import (
	"math"
	"strings"
	"testing"

	"sciborq/internal/engine"
	"sciborq/internal/skyserver"
	"sciborq/internal/table"
)

// testCost avoids per-test calibration runs.
func testCost() Option {
	return WithCostModel(engine.CostModel{NsPerRow: 10, FixedNs: 1000})
}

// openSky builds a DB with a generated catalogue, workload tracking and
// a 3-layer hierarchy.
func openSky(t *testing.T, objects int, policy Policy) *DB {
	t.Helper()
	db := Open(testCost(), WithSeed(42))
	sky, err := skyserver.Generate(skyserver.DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachTable(sky.PhotoObjAll); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachTable(sky.Field); err != nil {
		t.Fatal(err)
	}
	if err := db.TrackWorkload("PhotoObjAll",
		Attr{Name: "ra", Min: 120, Max: 240, Beta: 30},
		Attr{Name: "dec", Min: 0, Max: 60, Beta: 30},
	); err != nil {
		t.Fatal(err)
	}
	attrs := []string{"ra", "dec"}
	if policy != Biased {
		attrs = nil
	}
	if err := db.BuildImpressions("PhotoObjAll", ImpressionConfig{
		Sizes:  []int{objects / 10, objects / 100},
		Policy: policy,
		Attrs:  attrs,
		K:      500, D: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	// Load in nightly batches through the DB so impressions build.
	gen := sky.Generator(nil)
	for loaded := 0; loaded < objects; loaded += 5000 {
		n := 5000
		if objects-loaded < n {
			n = objects - loaded
		}
		if err := db.Load("PhotoObjAll", gen.NextBatch(n)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateTableAndTables(t *testing.T) {
	db := Open(testCost())
	_, err := db.CreateTable("t", Schema{{Name: "x", Type: Float64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", Schema{{Name: "x", Type: Float64}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Tables = %v", got)
	}
	if _, err := db.Table("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Table("zzz"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
}

func TestTrackWorkloadValidation(t *testing.T) {
	db := Open(testCost())
	if err := db.TrackWorkload("missing", Attr{Name: "a", Min: 0, Max: 1, Beta: 2}); err == nil {
		t.Fatal("tracking on missing table accepted")
	}
	_, _ = db.CreateTable("t", Schema{{Name: "x", Type: Float64}})
	if err := db.TrackWorkload("t", Attr{Name: "x", Min: 0, Max: 1, Beta: 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.TrackWorkload("t", Attr{Name: "x", Min: 0, Max: 1, Beta: 2}); err == nil {
		t.Fatal("double tracking accepted")
	}
	if db.Logger("t") == nil {
		t.Fatal("logger not retrievable")
	}
}

func TestBuildImpressionsValidation(t *testing.T) {
	db := Open(testCost())
	if err := db.BuildImpressions("missing", ImpressionConfig{Sizes: []int{10}}); err == nil {
		t.Fatal("impressions on missing table accepted")
	}
	_, _ = db.CreateTable("t", Schema{{Name: "x", Type: Float64}})
	if err := db.BuildImpressions("t", ImpressionConfig{}); err == nil {
		t.Fatal("empty sizes accepted")
	}
	if err := db.BuildImpressions("t", ImpressionConfig{Sizes: []int{10, 20}}); err == nil {
		t.Fatal("increasing sizes accepted")
	}
	if err := db.BuildImpressions("t", ImpressionConfig{Sizes: []int{20, 10}}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildImpressions("t", ImpressionConfig{Sizes: []int{20, 10}}); err == nil {
		t.Fatal("double build accepted")
	}
	if db.Hierarchy("t") == nil {
		t.Fatal("hierarchy not retrievable")
	}
}

func TestLoadUnknownTable(t *testing.T) {
	db := Open(testCost())
	if err := db.Load("zzz", []Row{{1.0}}); err == nil {
		t.Fatal("load into missing table accepted")
	}
}

func TestExactQueryEndToEnd(t *testing.T) {
	db := openSky(t, 20000, Uniform)
	res, err := db.Exec("SELECT COUNT(*) FROM PhotoObjAll")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Scalar("COUNT(*)"); got != 20000 {
		t.Fatalf("count = %v", got)
	}
	if res.Bounded != nil || res.Rows == nil {
		t.Fatal("unbounded query returned bounded result")
	}
}

func TestBoundedQueryEndToEnd(t *testing.T) {
	db := openSky(t, 30000, Uniform)
	res, err := db.Exec("SELECT AVG(r) AS avg_r FROM PhotoObjAll WITHIN ERROR 0.05")
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded == nil {
		t.Fatal("bounded query returned exact result")
	}
	if res.Bounded.Exact {
		t.Fatal("5% bound should be met from a sample layer")
	}
	got, err := res.Scalar("avg_r")
	if err != nil {
		t.Fatal(err)
	}
	// True mean r is ~18.
	if math.Abs(got-18) > 0.5 {
		t.Fatalf("avg r estimate = %v", got)
	}
	if len(res.Estimates()) != 1 {
		t.Fatalf("estimates = %v", res.Estimates())
	}
	if !strings.Contains(res.String(), "avg_r") {
		t.Fatalf("String rendering missing aggregate: %s", res)
	}
}

func TestTimeBoundedQueryEndToEnd(t *testing.T) {
	db := openSky(t, 30000, Uniform)
	res, err := db.Exec("SELECT COUNT(*) FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 5) WITHIN TIME 50us")
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded == nil {
		t.Fatal("time-bounded query returned exact result")
	}
	if res.Bounded.Exact {
		t.Fatal("50µs budget must exclude base data under the test cost model")
	}
}

func TestBiasedWorkflowAdaptsToQueries(t *testing.T) {
	db := openSky(t, 20000, Biased)
	// Queries against one focal point are logged...
	for i := 0; i < 200; i++ {
		if _, err := db.Exec("SELECT COUNT(*) FROM PhotoObjAll WHERE fGetNearbyObjEq(165, 20, 2)"); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.Logger("PhotoObjAll").Queries(); got < 200 {
		t.Fatalf("logged %d queries", got)
	}
	// ...and further loads bias toward it.
	sky, _ := skyserver.Generate(skyserver.DefaultConfig(0))
	gen := sky.Generator(nil)
	for i := 0; i < 4; i++ {
		if err := db.Load("PhotoObjAll", gen.NextBatch(5000)); err != nil {
			t.Fatal(err)
		}
	}
	h := db.Hierarchy("PhotoObjAll")
	if h == nil {
		t.Fatal("no hierarchy")
	}
	ra := layerFloat64(t, h.Layers()[0], "ra")
	focal := 0
	for _, v := range ra {
		if math.Abs(v-165) < 8 {
			focal++
		}
	}
	// The cluster plus bias should push well past the background rate.
	if frac := float64(focal) / float64(len(ra)); frac < 0.25 {
		t.Fatalf("focal fraction after adaptation = %v", frac)
	}
}

func TestProjectionWithTimeBoundUsesImpression(t *testing.T) {
	db := openSky(t, 30000, Uniform)
	res, err := db.Exec("SELECT objID, ra FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180 LIMIT 10 WITHIN TIME 50us")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil {
		t.Fatal("projection returned no rows result")
	}
	if res.Rows.Len() > 10 {
		t.Fatalf("limit ignored: %d rows", res.Rows.Len())
	}
	// Representative rows come from the impression (positions spread
	// across the whole table), not the first stored rows.
	ids, _ := res.Rows.Table.Int64("objID")
	var maxID int64
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	if maxID < 1000 {
		t.Fatalf("LIMIT rows look like the 'lucky first tuples': max objID %d", maxID)
	}
}

// TestTimeBoundedProjectionNeverFallsToBase: when the budget fits no
// layer, a WITHIN TIME projection runs on the smallest layer (best
// effort, like a bounded aggregate) — never on the whole base table,
// which would give the tightest bound the slowest plan.
func TestTimeBoundedProjectionNeverFallsToBase(t *testing.T) {
	db := openSky(t, 30000, Uniform) // 1µs fixed cost: 1µs affords no rows
	res, err := db.Exec("SELECT objID, ra FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180 LIMIT 10 WITHIN TIME 1us")
	if err != nil {
		t.Fatal(err)
	}
	smallest := db.Hierarchy("PhotoObjAll").Ascending()[0].Len()
	if res.Rows == nil {
		t.Fatal("projection returned no rows result")
	}
	if res.Rows.ScannedRows > smallest {
		t.Fatalf("scanned %d rows, want at most the smallest layer's %d", res.Rows.ScannedRows, smallest)
	}
}

func TestExecParseError(t *testing.T) {
	db := Open(testCost())
	if _, err := db.Exec("DELETE FROM t"); err == nil {
		t.Fatal("non-SELECT accepted")
	}
}

func TestExecUnknownTable(t *testing.T) {
	db := Open(testCost())
	if _, err := db.Exec("SELECT COUNT(*) FROM nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestResultScalarErrors(t *testing.T) {
	r := &Result{}
	if _, err := r.Scalar("x"); err == nil {
		t.Fatal("empty result Scalar succeeded")
	}
	if r.String() != "(empty)" {
		t.Fatalf("empty String = %q", r.String())
	}
	db := openSky(t, 10000, Uniform)
	res, err := db.Exec("SELECT AVG(r) AS a FROM PhotoObjAll WITHIN ERROR 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Scalar("nope"); err == nil {
		t.Fatal("missing aggregate Scalar succeeded")
	}
}

func TestGroupByStillExact(t *testing.T) {
	db := openSky(t, 10000, Uniform)
	res, err := db.Exec("SELECT COUNT(*) AS n FROM PhotoObjAll GROUP BY type ORDER BY n DESC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == nil || res.Rows.Len() < 3 {
		t.Fatalf("grouped result = %+v", res)
	}
	ns, _ := res.Rows.Float64Col("n")
	var total float64
	for _, n := range ns {
		total += n
	}
	if total != 10000 {
		t.Fatalf("group counts sum to %v", total)
	}
}

func TestAttachTableValidation(t *testing.T) {
	db := Open(testCost())
	tb := table.MustNew("t", Schema{{Name: "x", Type: Float64}})
	if err := db.AttachTable(tb); err != nil {
		t.Fatal(err)
	}
	if err := db.AttachTable(tb); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestCostModelAccessor(t *testing.T) {
	db := Open(testCost())
	if db.CostModel().NsPerRow != 10 {
		t.Fatalf("cost model = %+v", db.CostModel())
	}
}
