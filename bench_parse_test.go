package sciborq

import (
	"testing"

	"sciborq/internal/sqlparse"
	"sciborq/internal/xrand"
)

// Front-end benchmarks: the cost of turning SQL text into an executable
// plan, cold and cached. The client-observed counterparts are
// sqlparse.parse_us and plancache.lookup_us in bench/baseline.json.

const parseBenchSQL = "SELECT COUNT(*), AVG(r) AS m FROM T WHERE ra BETWEEN 10 AND 14 AND dec > 20 LIMIT 100"

// BenchmarkParseCold is the no-cache baseline: a full lex + parse of a
// representative SkyServer statement every iteration.
func BenchmarkParseCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(parseBenchSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// parseBenchDB builds a small loaded DB so plan admission runs against
// a real catalog identity (table ID + version), not a stub.
func parseBenchDB(b *testing.B, extra ...Option) *DB {
	b.Helper()
	opts := append([]Option{testCost()}, extra...)
	db := Open(opts...)
	if _, err := db.CreateTable("T", Schema{
		{Name: "ra", Type: Float64},
		{Name: "dec", Type: Float64},
		{Name: "r", Type: Float64},
	}); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(42)
	rows := make([]Row, 1024)
	for i := range rows {
		rows[i] = Row{rng.Float64() * 360, rng.Float64()*180 - 90, rng.Float64() * 30}
	}
	if err := db.Load("T", rows); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkPlanCacheWarmHit measures the cached-statement front end in
// isolation: a lookup (map probe + identity check + LRU stamp)
// replacing the cold parse entirely. This is the path asserted
// allocation-free by TestFrontEndZeroAlloc / `make bench-alloc`.
func BenchmarkPlanCacheWarmHit(b *testing.B) {
	db := parseBenchDB(b)
	if _, err := db.Exec(parseBenchSQL); err != nil {
		b.Fatal(err)
	}
	db.plans.Lookup("", parseBenchSQL) // warm the tenant counter block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if db.plans.Lookup("", parseBenchSQL) == nil {
			b.Fatal("unexpected plan-cache miss")
		}
	}
}

// BenchmarkExecPlanCache is the end-to-end comparison over the same
// 1M-row base as BenchmarkRecyclerRepeatedQuery: the identical repeated
// statement through a DB with the plan cache ("cached", a plan hit
// feeding a warm recycler hit) and one with it disabled ("uncached",
// full parse + canonicalisation every iteration). Both arms keep the
// recycler, so the difference isolates the front end.
func BenchmarkExecPlanCache(b *testing.B) {
	const rows = 1_000_000
	load := func(db *DB) {
		b.Helper()
		if _, err := db.CreateTable("T", Schema{
			{Name: "ra", Type: Float64},
			{Name: "dec", Type: Float64},
			{Name: "r", Type: Float64},
		}); err != nil {
			b.Fatal(err)
		}
		rng := xrand.New(42)
		const batch = 65536
		rowsBuf := make([]Row, 0, batch)
		for i := 0; i < rows; i++ {
			rowsBuf = append(rowsBuf, Row{
				rng.Float64() * 360,
				rng.Float64()*180 - 90,
				rng.Float64() * 30,
			})
			if len(rowsBuf) == batch || i == rows-1 {
				if err := db.Load("T", rowsBuf); err != nil {
					b.Fatal(err)
				}
				rowsBuf = rowsBuf[:0]
			}
		}
	}
	const repeatSQL = "SELECT AVG(r) AS v FROM T WHERE ra BETWEEN 10 AND 14"

	dbs := map[string]*DB{
		"cached":   Open(testCost()),
		"uncached": Open(testCost(), WithPlanCacheBudget(-1)),
	}
	for _, db := range dbs {
		load(db)
	}

	for _, arm := range []string{"cached", "uncached"} {
		db := dbs[arm]
		b.Run(arm, func(b *testing.B) {
			if _, err := db.Exec(repeatSQL); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Exec(repeatSQL)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Scalar("v"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if arm == "cached" {
				st := db.PlanCacheStats()
				b.ReportMetric(st.HitRate(), "hitrate")
			}
		})
	}
}

// TestFrontEndZeroAlloc is the end-to-end half of the allocation gate
// (`make bench-alloc`; the package-local half is
// plancache.TestLookupZeroAlloc): once a statement's plan is cached,
// re-validating that exact spelling — the map probe plus the
// catalog-backed table-version check — must allocate zero bytes.
func TestFrontEndZeroAlloc(t *testing.T) {
	db := Open(testCost())
	if _, err := db.CreateTable("T", Schema{{Name: "ra", Type: Float64}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("T", []Row{{1.0}, {2.0}, {3.0}}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) AS c FROM T WHERE ra > 1"
	if _, err := db.Exec(sql); err != nil { // cold: parse + admit
		t.Fatal(err)
	}
	if err := db.CheckSQL(sql); err != nil { // warm the tenant counter block
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := db.CheckSQL(sql); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached-statement front end allocates %v objects/op, want 0", allocs)
	}
}
