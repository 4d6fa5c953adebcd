package sciborq

import (
	"math"
	"sync"
	"testing"

	"sciborq/internal/xrand"
)

// Ingest-while-bounded-query audit (run under -race in CI): nightly
// loads stream into the base table while bounded aggregate queries,
// exact queries and hierarchy refreshes run concurrently. Extends the
// PR 2/3 ingest-audit pattern to the impression path: bounded
// executions take one base snapshot and clamp every layer view to it,
// so answers must always describe a batch-atomic prefix.

const (
	ingestBatchRows = 400
	ingestBatches   = 100
	ingestSeedRows  = 4000
)

func ingestFixture(t *testing.T) *DB {
	t.Helper()
	db := Open(testCost(), WithSeed(9))
	if _, err := db.CreateTable("T", Schema{
		{Name: "ra", Type: Float64},
		{Name: "r", Type: Float64},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildImpressions("T", ImpressionConfig{Sizes: []int{2000, 200}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("T", ingestBatch(0)); err != nil {
		t.Fatal(err)
	}
	return db
}

func ingestBatch(seed uint64) []Row {
	rng := xrand.New(seed + 1)
	n := ingestBatchRows
	if seed == 0 {
		n = ingestSeedRows
	}
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{rng.Float64(), rng.Float64() * 10}
	}
	return rows
}

// TestFirstShortLoadFillsSmallerLayers: a first load shorter than the
// refresh interval (4 000 rows against 4 096) still fills every smaller
// layer, so a WITHIN TIME bound only the smallest layer can keep is
// answered from its sampled rows, not as 0 ± +Inf from none.
func TestFirstShortLoadFillsSmallerLayers(t *testing.T) {
	db := ingestFixture(t)
	for _, im := range db.Hierarchy("T").Layers() {
		if im.Len() != min(im.Cap(), ingestSeedRows) {
			t.Fatalf("%s holds %d rows after a first load of %d", im.Name(), im.Len(), ingestSeedRows)
		}
	}
	res, err := db.Exec("SELECT AVG(r) AS m FROM T WITHIN TIME 1us")
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded == nil || res.Bounded.Exact {
		t.Fatalf("WITHIN TIME 1us was not answered from a layer: %+v", res.Bounded)
	}
	e := res.Bounded.Estimates[0]
	if e.SampleRows == 0 || math.IsInf(e.Interval.HalfWidth, 0) || math.IsNaN(e.Interval.HalfWidth) {
		t.Fatalf("layer %s answered %v ± %v from %d rows", res.Bounded.Layer, e.Value(), e.Interval.HalfWidth, e.SampleRows)
	}
}

// TestIngestWhileBoundedQuery loads batches concurrently with bounded
// (WITHIN ERROR, WITHIN TIME) and exact aggregate queries plus
// hierarchy refreshes, asserting every answer is coherent and every
// exact COUNT(*) lands on a batch boundary.
func TestIngestWhileBoundedQuery(t *testing.T) {
	db := ingestFixture(t)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := 1; b <= ingestBatches; b++ {
			if err := db.Load("T", ingestBatch(uint64(b))); err != nil {
				t.Errorf("load %d: %v", b, err)
				return
			}
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		h := db.Hierarchy("T")
		for {
			select {
			case <-done:
				return
			default:
			}
			h.Refresh()
		}
	}()

	queries := []string{
		"SELECT AVG(r) AS a FROM T WHERE ra < 0.5 WITHIN ERROR 0.25 CONFIDENCE 0.95",
		"SELECT COUNT(*) AS c, SUM(r) AS s FROM T WHERE ra BETWEEN 0.2 AND 0.8 WITHIN TIME 50ms",
		"SELECT MAX(r) AS m FROM T WITHIN ERROR 0.5",
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Exact COUNT(*): must describe a batch-atomic prefix.
				res, err := db.Exec("SELECT COUNT(*) AS c FROM T")
				if err != nil {
					t.Errorf("worker %d: exact count: %v", worker, err)
					return
				}
				c, err := res.Scalar("c")
				if err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				if n := int(c); n < ingestSeedRows ||
					(n-ingestSeedRows)%ingestBatchRows != 0 {
					t.Errorf("worker %d: COUNT(*) = %d is not a batch-atomic prefix", worker, n)
					return
				}
				// Bounded answers: no errors, coherent estimates.
				sql := queries[i%len(queries)]
				bres, err := db.Exec(sql)
				if err != nil {
					t.Errorf("worker %d: %q: %v", worker, sql, err)
					return
				}
				if bres.Bounded == nil || len(bres.Bounded.Estimates) == 0 {
					t.Errorf("worker %d: %q returned no bounded estimates", worker, sql)
					return
				}
				for _, e := range bres.Bounded.Estimates {
					if math.IsNaN(e.Value()) {
						t.Errorf("worker %d: %q: NaN estimate for %s (layer %s)",
							worker, sql, e.Spec.Name(), bres.Bounded.Layer)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: the final exact count covers every batch.
	res, err := db.Exec("SELECT COUNT(*) AS c FROM T")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := res.Scalar("c")
	if want := ingestSeedRows + ingestBatches*ingestBatchRows; int(c) != want {
		t.Fatalf("final count %d, want %d", int(c), want)
	}
}

// TestIngestWhileBoundedProjection runs the impression-backed LIMIT
// projection path concurrently with loads: every returned position must
// come from the snapshot prefix (no out-of-range reads), which the
// -race run turns into a hard guarantee.
func TestIngestWhileBoundedProjection(t *testing.T) {
	db := ingestFixture(t)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := 1; b <= ingestBatches/2; b++ {
			if err := db.Load("T", ingestBatch(uint64(b))); err != nil {
				t.Errorf("load %d: %v", b, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := db.Exec("SELECT ra, r FROM T WHERE ra < 0.9 LIMIT 20 WITHIN TIME 10ms")
			if err != nil {
				t.Errorf("projection: %v", err)
				return
			}
			if res.Rows == nil || res.Rows.Len() > 20 {
				t.Errorf("projection shape: %v", res.Rows)
				return
			}
		}
	}()
	wg.Wait()
}
