package sciborq

import (
	"fmt"
	"testing"

	"sciborq/internal/skyserver"
)

// Recycler equivalence audit: execution through the recycler must be
// bit-identical to the uncached path at every parallelism level. Each
// parallelism level runs a recycling and a non-recycling DB over the
// same deterministic SkyServer load; every query runs twice on the
// recycling DB so the second pass is served from a cached selection,
// plus literal variants and a commuted spelling (new keys beside, or
// sharing, the entries they resemble), and the whole grid again after
// a Load has bumped the table version under every cached selection.
// String() renders exact decimal formatting, so equal strings mean
// equal floating-point bits.
func TestRecyclerExecEquivalence(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM PhotoObjAll",
		"SELECT COUNT(*), AVG(r) AS m, SUM(r) AS s FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180",
		"SELECT MIN(r) AS lo, MAX(r) AS hi FROM PhotoObjAll WHERE dec > 10",
		"SELECT AVG(r) AS m FROM PhotoObjAll WHERE type = 'GALAXY'",
		"SELECT COUNT(*), AVG(r) AS m FROM PhotoObjAll WHERE ra BETWEEN 120 AND 240 GROUP BY type",
		"SELECT objID, ra FROM PhotoObjAll WHERE ra BETWEEN 170 AND 171 ORDER BY ra LIMIT 25",
		"SELECT COUNT(*) AS c FROM PhotoObjAll WHERE ra > 200 AND dec > 0",
	}
	// Literal variants of cached statements and a commuted spelling.
	variants := []string{
		"SELECT COUNT(*), AVG(r) AS m, SUM(r) AS s FROM PhotoObjAll WHERE ra BETWEEN 140 AND 190",
		"SELECT MIN(r) AS lo, MAX(r) AS hi FROM PhotoObjAll WHERE dec > 25",
		"SELECT COUNT(*) AS c FROM PhotoObjAll WHERE dec > 0 AND ra > 200",
	}
	all := append(append([]string(nil), queries...), variants...)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			cached := equivDB(t, workers)
			uncached := equivDB(t, workers, WithRecyclerBudget(-1))
			run := func(db *DB, sql string) string {
				t.Helper()
				res, err := db.Exec(sql)
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				return res.String()
			}
			for _, sql := range queries {
				want := run(uncached, sql)
				if got := run(cached, sql); got != want { // cold: scan + insert
					t.Errorf("cold pass diverged on %q:\ncached:\n%s\nuncached:\n%s", sql, got, want)
				}
				if got := run(cached, sql); got != want { // warm: cached selection
					t.Errorf("warm pass diverged on %q:\ncached:\n%s\nuncached:\n%s", sql, got, want)
				}
			}
			for _, sql := range variants {
				want := run(uncached, sql)
				if got := run(cached, sql); got != want {
					t.Errorf("variant diverged on %q:\ncached:\n%s\nuncached:\n%s", sql, got, want)
				}
			}
			if st := cached.RecyclerStats(); st.Hits == 0 {
				t.Errorf("warm passes never hit the recycler: %+v", st)
			}

			// A load bumps the table version: every cached selection now
			// describes a shorter prefix and must not be served again.
			sky, err := skyserver.New(skyserver.DefaultConfig(0))
			if err != nil {
				t.Fatal(err)
			}
			gen := sky.Generator(nil)
			gen.NextBatch(40_000) // the batch equivDB already loaded
			night := gen.NextBatch(8_000)
			for _, db := range []*DB{cached, uncached} {
				if err := db.Load("PhotoObjAll", night); err != nil {
					t.Fatal(err)
				}
			}
			for _, sql := range all {
				want := run(uncached, sql)
				if got := run(cached, sql); got != want { // new version: rescanned
					t.Errorf("post-load pass diverged on %q:\ncached:\n%s\nuncached:\n%s", sql, got, want)
				}
				if got := run(cached, sql); got != want { // cached at the new version
					t.Errorf("post-load warm pass diverged on %q:\ncached:\n%s\nuncached:\n%s", sql, got, want)
				}
			}
		})
	}
}
