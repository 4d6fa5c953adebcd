package sciborq

import (
	"math"
	"testing"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/xrand"
)

// BenchmarkBoundedQuery measures the paper's central code path — answer
// a bounded aggregate from an impression layer — on a 1M-row base with
// a 3-layer hierarchy, with the layer DIRTIED before every query (a
// nightly batch landed since the last one; the common steady state).
//
// The layer refreshes its sorted view by merging the reservoir's
// insertions/evictions (no sort, no copy) and the filtered AVG runs as
// a zone-map-pruned selection-vector scan over the base snapshot. The
// base is ra-clustered (as ingest-ordered sky scans are), so zone maps
// skip the granules the BETWEEN predicate cannot match in. The cone
// case runs the narrowed layer scan.

const (
	benchBaseRows  = 1 << 20
	benchLayerRows = 256 * 1024
	benchDirtyRows = 4096
)

type boundedBench struct {
	base  *table.Table
	layer *impression.Impression
	rng   *xrand.RNG
	next  int
}

func buildBoundedBench(b *testing.B) *boundedBench {
	b.Helper()
	bb := &boundedBench{rng: xrand.New(99)}
	bb.base = table.MustNew("Photo", table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "r", Type: column.Float64},
		{Name: "z", Type: column.Float64},
	})
	if err := bb.base.AppendColumns(bb.makeChunk(benchBaseRows)); err != nil {
		b.Fatal(err)
	}
	l0, err := impression.New(bb.base, impression.Config{Name: "L0", Size: benchLayerRows, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	l1, err := impression.New(bb.base, impression.Config{Name: "L1", Size: benchLayerRows / 8, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	l2, err := impression.New(bb.base, impression.Config{Name: "L2", Size: benchLayerRows / 64, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	// RefreshEvery beyond the benchmark's total ingest: the dirty step
	// must dirty the 256k stream layer, not rebuild the derived ones.
	h, err := impression.NewHierarchy([]*impression.Impression{l0, l1, l2}, 1<<40)
	if err != nil {
		b.Fatal(err)
	}
	h.OfferRange(0, benchBaseRows)
	h.Refresh()
	bb.layer = l0
	bb.next = benchBaseRows
	return bb
}

// makeChunk synthesises n rows: ra climbs monotonically across the
// table (ingest order ≈ scan order, the clustered shape zone maps are
// built for), everything else is noise.
func (bb *boundedBench) makeChunk(n int) []column.Column {
	ids := make([]int64, n)
	ra := make([]float64, n)
	dec := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	for i := 0; i < n; i++ {
		row := bb.next + i
		ids[i] = int64(row)
		ra[i] = 120 + 120*float64(row%benchBaseRows)/benchBaseRows
		dec[i] = bb.rng.Float64() * 60
		r[i] = 10 + bb.rng.Float64()*10
		z[i] = bb.rng.NormFloat64()
	}
	return []column.Column{
		column.NewInt64From("objID", ids),
		column.NewFloat64From("ra", ra),
		column.NewFloat64From("dec", dec),
		column.NewFloat64From("r", r),
		column.NewFloat64From("z", z),
	}
}

// dirty lands one nightly batch: append to base, offer to the layer.
func (bb *boundedBench) dirty(b *testing.B) {
	b.Helper()
	if err := bb.base.AppendColumns(bb.makeChunk(benchDirtyRows)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchDirtyRows; i++ {
		bb.layer.Offer(int32(bb.next + i))
	}
	bb.next += benchDirtyRows
}

func benchQuery() engine.Query {
	return engine.Query{
		Table: "Photo",
		Where: expr.Between{Expr: expr.ColRef{Name: "ra"}, Lo: 150, Hi: 165},
		Aggs:  []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "r"}, Alias: "a"}},
	}
}

func checkBenchEstimate(b *testing.B, ests []estimate.Estimate) {
	b.Helper()
	if len(ests) != 1 || ests[0].SampleRows == 0 {
		b.Fatalf("estimate shape: %+v", ests)
	}
	if v := ests[0].Value(); math.IsNaN(v) || v < 10 || v > 20 {
		b.Fatalf("AVG(r) estimate %v out of range", v)
	}
}

func BenchmarkBoundedQuery(b *testing.B) {
	bb := buildBoundedBench(b)
	q := benchQuery()
	opts := engine.DefaultExecOptions()

	b.Run("selection", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			bb.dirty(b)
			b.StartTimer()
			v := bb.layer.View()
			snap := bb.base.Snapshot()
			sl := estimate.SelLayer{
				Name: bb.layer.Name(), Base: snap,
				Positions: v.Clamp(snap.Len()).Positions,
				Weights:   v.Weights, CountWeights: v.Pis,
				BaseRows: int64(snap.Len()),
			}
			ests, err := estimate.AggregateOnSelOpts(sl, q, 0.95, opts)
			if err != nil {
				b.Fatal(err)
			}
			checkBenchEstimate(b, ests)
		}
	})

	// cone: a cone aggregate on the layer between two loads, the shape of
	// an interactive sky exploration. The view's grid is built by the
	// first query; each query then scans only the samples in the cells of
	// the cone's box, with their sample indices, through the narrowing
	// call a bounded rung makes (impression.View.Narrow of
	// expr.BoxesOf).
	b.Run("cone", func(b *testing.B) {
		b.ReportAllocs()
		cq := q
		cq.Where = expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 180, Dec0: 30, Radius: 3}
		boxes := expr.BoxesOf(cq.Where)
		for i := 0; i < b.N; i++ {
			snap := bb.base.Snapshot()
			v := bb.layer.View().Clamp(snap.Len())
			sl := estimate.SelLayer{
				Name: bb.layer.Name(), Base: snap, Positions: v.Positions,
				Weights: v.Weights, CountWeights: v.Pis, ShareSums: v.ShareSums,
				BaseRows: int64(snap.Len()),
			}
			sl.Scan, sl.ScanIdx = v.Narrow(boxes)
			ests, err := estimate.AggregateOnSelOpts(sl, cq, 0.95, opts)
			vec.PutSel(sl.Scan)
			vec.PutSel(sl.ScanIdx)
			if err != nil {
				b.Fatal(err)
			}
			checkBenchEstimate(b, ests)
		}
	})
}

// BenchmarkHierarchyLoad measures loading with a biased 3-layer
// hierarchy attached (100k/10k/1k rows over ra and dec): one op is a
// fresh DB loaded with 1M rows in 20k-row DB.Load batches, so every
// refresh of the smaller layers is on the clock. Generating the rows is
// not. Reports ns/row.
func BenchmarkHierarchyLoad(b *testing.B) {
	const rows, batchRows = 1 << 20, 20_000
	rng := xrand.New(2011)
	batch := make([]Row, batchRows)
	var loadNs int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := Open(WithSeed(2011), WithCostModel(engine.CostModel{NsPerRow: 2, FixedNs: 5000}))
		if _, err := db.CreateTable("PhotoObjAll", Schema{
			{Name: "objID", Type: Int64}, {Name: "ra", Type: Float64},
			{Name: "dec", Type: Float64}, {Name: "r", Type: Float64},
		}); err != nil {
			b.Fatal(err)
		}
		if err := db.TrackWorkload("PhotoObjAll",
			Attr{Name: "ra", Min: 120, Max: 240, Beta: 30},
			Attr{Name: "dec", Min: 0, Max: 60, Beta: 30}); err != nil {
			b.Fatal(err)
		}
		if err := db.BuildImpressions("PhotoObjAll", ImpressionConfig{
			Sizes: []int{100_000, 10_000, 1_000}, Policy: Biased, Attrs: []string{"ra", "dec"},
		}); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < rows; lo += batchRows {
			n := min(batchRows, rows-lo)
			for j := range n {
				batch[j] = Row{int64(lo + j), 120 + 120*rng.Float64(), 60 * rng.Float64(), 14 + 8*rng.Float64()}
			}
			b.StartTimer()
			t0 := time.Now()
			if err := db.Load("PhotoObjAll", batch[:n]); err != nil {
				b.Fatal(err)
			}
			loadNs += time.Since(t0).Nanoseconds()
			b.StopTimer()
		}
	}
	b.ReportMetric(float64(loadNs)/float64(b.N*rows), "ns/row")
}
