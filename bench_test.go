package sciborq

// The benchmark harness: one benchmark per paper artifact (Figure 4,
// Figure 7) and per experiment E1–E8, plus the ablations called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks measure the cost of regenerating each artifact; the
// artifact *content* checks live in internal/experiments tests and in
// EXPERIMENTS.md.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/experiments"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/kde"
	"sciborq/internal/recycler"
	"sciborq/internal/reservoir"
	"sciborq/internal/skyserver"
	"sciborq/internal/sqlparse"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// BenchmarkFigure4 regenerates the Figure-4 pipeline: 400 logged
// queries, Figure-5 histograms, and all four density curves per
// attribute.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(400, 30, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 at reduced scale (the paper's
// 600k-row version runs via cmd/figures; the benchmark tracks the cost
// shape at 60k).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(60_000, 2_000, 30, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1LayerError measures the error-vs-size sweep.
func BenchmarkE1LayerError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1LayerError(40_000, []int{1000, 4000, 16_000}, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2TimeBounds measures the latency-promise experiment.
func BenchmarkE2TimeBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2TimeBounds(30_000, []int{1000, 10_000}, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3BiasedVsUniform measures the central biased-vs-uniform
// comparison.
func BenchmarkE3BiasedVsUniform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3BiasedVsUniform(60_000, 3_000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Adaptation measures the workload-shift experiment.
func BenchmarkE4Adaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4Adaptation(20, 2000, 1000, 10, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5Escalation measures the quality-bound escalation sweep.
func BenchmarkE5Escalation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := experiments.E5Escalation(40_000, []int{8000, 2000, 400},
			[]float64{0.1, 0.01, 1e-9}, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6LastSeen measures the recency-bias profile run.
func BenchmarkE6LastSeen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6LastSeen(200_000, 10_000, 1000, []float64{0.5, 1}, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7KDECost measures the f̂-vs-f̆ cost sweep.
func BenchmarkE7KDECost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7KDECost([]int{100, 1000, 10_000}, 30, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Fisher measures the Fisher NCH validation run.
func BenchmarkE8Fisher(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Fisher(60, 140, 40, 200, []float64{1, 5}, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the core algorithms -------------------------

// BenchmarkReservoirR measures Algorithm R offers (Figure 2).
func BenchmarkReservoirR(b *testing.B) {
	r, err := reservoir.NewR[int32](10_000, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Offer(int32(i))
	}
}

// BenchmarkReservoirBiased measures Figure-6 offers including the f̆
// weight evaluation.
func BenchmarkReservoirBiased(b *testing.B) {
	hist := stats.MustNewHistogram(0, 100, 30)
	rng := xrand.New(2)
	for i := 0; i < 400; i++ {
		hist.Observe(25 + rng.NormFloat64()*5)
	}
	kd, err := kde.NewBinned(hist, nil)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	weight := func(i int32) float64 {
		return kd.Eval(vals[int(i)&(1<<16-1)]) * float64(hist.N)
	}
	sampler, err := reservoir.NewBiased[int32](10_000, weight, xrand.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampler.Offer(int32(i))
	}
}

// BenchmarkBinnedKDE measures one f̆ evaluation (β=30).
func BenchmarkBinnedKDE(b *testing.B) {
	hist := stats.MustNewHistogram(0, 100, 30)
	rng := xrand.New(4)
	for i := 0; i < 10_000; i++ {
		hist.Observe(40 + rng.NormFloat64()*10)
	}
	kd, err := kde.NewBinned(hist, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += kd.Eval(float64(i % 100))
	}
	_ = sink
}

// BenchmarkFullKDE measures one f̂ evaluation over N=10000 raw values —
// the cost f̆ avoids.
func BenchmarkFullKDE(b *testing.B) {
	rng := xrand.New(5)
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = 40 + rng.NormFloat64()*10
	}
	f, err := kde.NewFull(xs, 3, kde.Gaussian{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += f.Eval(float64(i % 100))
	}
	_ = sink
}

// BenchmarkSQLParse measures parsing of a bounded paper-style query.
func BenchmarkSQLParse(b *testing.B) {
	const q = "SELECT COUNT(*), AVG(r) AS m FROM PhotoObjAll WHERE type = 'GALAXY' AND fGetNearbyObjEq(185, 0, 3) WITHIN ERROR 0.05 CONFIDENCE 0.99"
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDB builds a loaded DB once per benchmark binary.
func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := Open(WithCostModel(engine.CostModel{NsPerRow: 15, FixedNs: 5000}), WithSeed(6))
	sky, err := skyserver.New(skyserver.DefaultConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	fact, err := sky.Catalog.Get("PhotoObjAll")
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AttachTable(fact); err != nil {
		b.Fatal(err)
	}
	if err := db.BuildImpressions("PhotoObjAll", ImpressionConfig{
		Sizes: []int{rows / 10, rows / 100}, Policy: Uniform,
	}); err != nil {
		b.Fatal(err)
	}
	gen := sky.Generator(nil)
	if err := db.Load("PhotoObjAll", gen.NextBatch(rows)); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkExecExact measures a full exact aggregate over 100k rows.
func BenchmarkExecExact(b *testing.B) {
	db := benchDB(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT AVG(r) AS v FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecErrorBounded measures the same aggregate under a 5%
// quality bound (answered from an impression layer).
func BenchmarkExecErrorBounded(b *testing.B) {
	db := benchDB(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT AVG(r) AS v FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180 WITHIN ERROR 0.05"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecTimeBounded measures the same aggregate under a 100µs
// runtime bound.
func BenchmarkExecTimeBounded(b *testing.B) {
	db := benchDB(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT AVG(r) AS v FROM PhotoObjAll WHERE ra BETWEEN 150 AND 180 WITHIN TIME 100us"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §3) ----------------------------------------

// BenchmarkAblationBinnedBandwidth sweeps β to show the f̆ cost/fidelity
// trade (cost only here; fidelity asserted in kde tests).
func BenchmarkAblationBinnedBandwidth(b *testing.B) {
	rng := xrand.New(8)
	for _, beta := range []int{10, 30, 100, 300} {
		b.Run(fmt.Sprintf("beta%d", beta), func(b *testing.B) {
			hist := stats.MustNewHistogram(0, 100, beta)
			for i := 0; i < 10_000; i++ {
				hist.Observe(40 + rng.NormFloat64()*10)
			}
			kd, err := kde.NewBinned(hist, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += kd.Eval(float64(i % 100))
			}
			_ = sink
		})
	}
}

// BenchmarkAblationRecyclerOnOff measures repeated predicate evaluation
// with and without the intermediate recycler.
func BenchmarkAblationRecyclerOnOff(b *testing.B) {
	sky, err := skyserver.Generate(skyserver.DefaultConfig(100_000))
	if err != nil {
		b.Fatal(err)
	}
	pred := skyserver.FGetNearbyObjEq(165, 20, 3)
	opts := engine.ExecOptions{Parallelism: 1}
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := engine.Filter(sky.PhotoObjAll, pred, nil, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		rec, err := recycler.New(recycler.DefaultBudget)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := rec.Filter(sky.PhotoObjAll.Snapshot(), pred, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkImpressionOfferUniform measures the per-tuple load-path cost
// of maintaining a uniform impression.
func BenchmarkImpressionOfferUniform(b *testing.B) {
	sky, err := skyserver.Generate(skyserver.DefaultConfig(1000))
	if err != nil {
		b.Fatal(err)
	}
	im, err := impression.New(sky.PhotoObjAll, impression.Config{Name: "u", Size: 512, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Offer(int32(i % 1000))
	}
}

// BenchmarkImpressionOfferBiased measures the per-tuple load-path cost
// of maintaining a biased impression (f̆ evaluation included).
func BenchmarkImpressionOfferBiased(b *testing.B) {
	sky, err := skyserver.Generate(skyserver.DefaultConfig(1000))
	if err != nil {
		b.Fatal(err)
	}
	logger, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: 30},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(10)
	for i := 0; i < 400; i++ {
		logger.LogPoints([]expr.Point{{Attr: "ra", Value: 160 + rng.NormFloat64()*5}})
	}
	im, err := impression.New(sky.PhotoObjAll, impression.Config{
		Name: "b", Size: 512, Policy: impression.Biased,
		Logger: logger, Attrs: []string{"ra"}, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Offer(int32(i % 1000))
	}
}

// BenchmarkLoadPath measures end-to-end nightly loading with a 3-layer
// hierarchy attached (rows/op reported through custom metric).
func BenchmarkLoadPath(b *testing.B) {
	sky, err := skyserver.New(skyserver.DefaultConfig(0))
	if err != nil {
		b.Fatal(err)
	}
	db := Open(WithCostModel(engine.CostModel{NsPerRow: 15, FixedNs: 5000}))
	fact, _ := sky.Catalog.Get("PhotoObjAll")
	if err := db.AttachTable(fact); err != nil {
		b.Fatal(err)
	}
	if err := db.BuildImpressions("PhotoObjAll", ImpressionConfig{
		Sizes: []int{10_000, 1_000, 100}, Policy: Uniform,
	}); err != nil {
		b.Fatal(err)
	}
	gen := sky.Generator(nil)
	const batchSize = 10_000
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := db.Load("PhotoObjAll", gen.NextBatch(batchSize)); err != nil {
			b.Fatal(err)
		}
	}
	if b.N > 0 {
		perRow := float64(time.Since(start).Nanoseconds()) / float64(b.N*batchSize)
		b.ReportMetric(perRow, "ns/row")
	}
}

// --- Morsel-driven parallel executor ---------------------------------

// scanTable builds the 1M-row synthetic scan target shared by the
// parallel-executor benchmarks (built once per benchmark binary).
var scanTable = struct {
	once sync.Once
	tb   *table.Table
}{}

func benchScanTable(b *testing.B) *table.Table {
	b.Helper()
	scanTable.once.Do(func() {
		const n = 1_000_000
		xs := make([]float64, n)
		vs := make([]float64, n)
		gs := make([]int64, n)
		fs := make([]int64, n)
		state := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < n; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			xs[i] = float64(state%1_000_003) / 1_000_003
			vs[i] = float64(int64(state>>20)%2001-1000) / 7
			gs[i] = int64(state>>61) % 8
			fs[i] = int64(state>>40) % 256
		}
		tb := table.MustNew("scan", table.Schema{
			{Name: "x", Type: column.Float64},
			{Name: "v", Type: column.Float64},
			{Name: "g", Type: column.Int64},
			{Name: "f", Type: column.Int64},
		})
		if err := tb.AppendColumns([]column.Column{
			column.NewFloat64From("x", xs),
			column.NewFloat64From("v", vs),
			column.NewInt64From("g", gs),
			column.NewInt64From("f", fs),
		}); err != nil {
			panic(err)
		}
		scanTable.tb = tb
	})
	return scanTable.tb
}

// BenchmarkParallelFilteredAgg measures the tentpole hot path — a
// filtered AVG over 1M rows — at 1/2/4/8 workers. The workers1 case is
// the sequential baseline; speedup at workersN vs workers1 is the
// morsel executor's scaling figure (bounded by available cores).
func BenchmarkParallelFilteredAgg(b *testing.B) {
	tb := benchScanTable(b)
	q := engine.Query{
		Table: "scan",
		Where: expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.25, Hi: 0.75},
		Aggs:  []engine.AggSpec{{Func: engine.Avg, Arg: expr.ColRef{Name: "v"}, Alias: "m"}},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := engine.ExecOptions{Parallelism: workers}
			b.SetBytes(int64(tb.Len()) * 16) // two float64 columns touched
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunOnOpts(tb, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGroupBy measures the per-morsel hash-grouping path
// (filter + GROUP BY + two aggregates over 1M rows) at 1/2/4/8 workers:
// 8 BIGINT keys under a ~90 % filter, and ("fields256_") the shape of
// the scan workload's group class — 256 BIGINT keys, ~65 % of the rows
// selected, COUNT(*) and AVG.
func BenchmarkParallelGroupBy(b *testing.B) {
	tb := benchScanTable(b)
	aggs := []engine.AggSpec{
		{Func: engine.Count},
		{Func: engine.Avg, Arg: expr.ColRef{Name: "v"}, Alias: "m"},
	}
	arms := []struct {
		prefix string
		q      engine.Query
	}{
		{"", engine.Query{Table: "scan", GroupBy: "g", Aggs: aggs,
			Where: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "x"}, Right: 0.1}}},
		{"fields256_", engine.Query{Table: "scan", GroupBy: "f", Aggs: aggs,
			Where: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 0.65}}},
	}
	for _, arm := range arms {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%sworkers%d", arm.prefix, workers), func(b *testing.B) {
				opts := engine.ExecOptions{Parallelism: workers}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := engine.RunOnOpts(tb, arm.q, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParallelProjectionFilter measures the parallel-filter +
// sequential-materialise projection path at 1/2/4/8 workers.
func BenchmarkParallelProjectionFilter(b *testing.B) {
	tb := benchScanTable(b)
	q := engine.Query{
		Table:  "scan",
		Where:  expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0.495, Hi: 0.505},
		Select: []string{"x", "v"},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := engine.ExecOptions{Parallelism: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunOnOpts(tb, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSelectiveFilterSweep measures the range-native scan path at
// three predicate selectivities over 1M rows (filtered COUNT + SUM),
// plus an arm in the shape of the scan workload's aggregate class: a
// 25 % BETWEEN window refined by a ~64 % comparison, folding COUNT(*)
// and AVG. Run with -benchmem: allocated bytes/op is the headline
// figure — the sel-gather path paid a ~256KB index vector per 64K
// morsel before the range refactor; the range kernels + scratch pool
// should hold the whole scan near zero.
func BenchmarkSelectiveFilterSweep(b *testing.B) {
	tb := benchScanTable(b)
	x, v := expr.ColRef{Name: "x"}, expr.ColRef{Name: "v"}
	type arm struct {
		name  string
		where expr.Predicate
		aggs  []engine.AggSpec
	}
	var arms []arm
	// x is uniform on [0,1): the Between width is the selectivity.
	for _, sv := range []struct {
		name  string
		width float64
	}{
		{"sel0.1pct", 0.001},
		{"sel1pct", 0.01},
		{"sel50pct", 0.5},
	} {
		arms = append(arms, arm{
			name:  sv.name,
			where: expr.Between{Expr: x, Lo: 0.25, Hi: 0.25 + sv.width},
			aggs:  []engine.AggSpec{{Func: engine.Count}, {Func: engine.Sum, Arg: v, Alias: "s"}},
		})
	}
	arms = append(arms, arm{
		name: "agg-and",
		where: expr.And{
			L: expr.Between{Expr: x, Lo: 0.25, Hi: 0.5},
			R: expr.Cmp{Op: vec.Lt, Left: v, Right: 40},
		},
		aggs: []engine.AggSpec{{Func: engine.Count, Alias: "n"}, {Func: engine.Avg, Arg: v, Alias: "m"}},
	})
	for _, a := range arms {
		q := engine.Query{Table: "scan", Where: a.where, Aggs: a.aggs}
		b.Run(a.name, func(b *testing.B) {
			opts := engine.ExecOptions{Parallelism: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunOnOpts(tb, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zoneBenchTable holds 1M rows with the same values clustered (xc =
// row index) and shuffled (xs = a permutation of the same domain), so
// the pruned and unpruned arms of BenchmarkZoneMapPruning do identical
// per-row work and differ only in what zone maps can prove.
var zoneBenchTable = struct {
	once sync.Once
	tb   *table.Table
}{}

func benchZoneTable(b *testing.B) *table.Table {
	b.Helper()
	zoneBenchTable.once.Do(func() {
		const n = 1 << 20 // 16 zone granules
		xc := make([]float64, n)
		xs := make([]float64, n)
		vs := make([]float64, n)
		for i := 0; i < n; i++ {
			xc[i] = float64(i)
			// A fixed odd multiplier mod 2^20 is a bijection: same value
			// set as xc, maximally de-clustered.
			xs[i] = float64((i * 1664525) & (n - 1))
			vs[i] = float64(i%4099) / 4099
		}
		tb := table.MustNew("zonescan", table.Schema{
			{Name: "xc", Type: column.Float64},
			{Name: "xs", Type: column.Float64},
			{Name: "v", Type: column.Float64},
		})
		if err := tb.AppendColumns([]column.Column{
			column.NewFloat64From("xc", xc),
			column.NewFloat64From("xs", xs),
			column.NewFloat64From("v", vs),
		}); err != nil {
			panic(err)
		}
		zoneBenchTable.tb = tb
	})
	return zoneBenchTable.tb
}

// BenchmarkZoneMapPruning measures morsel skipping on clustered data:
// the same one-granule range predicate over a clustered column (zone
// maps skip 15 of 16 morsels) and over a shuffled copy of the same
// values (every granule spans the domain — nothing prunes). The
// "morsels" metric reports how many morsels each arm evaluated.
func BenchmarkZoneMapPruning(b *testing.B) {
	tb := benchZoneTable(b)
	for _, arm := range []struct{ name, col string }{
		{"clustered", "xc"},
		{"shuffled", "xs"},
	} {
		q := engine.Query{
			Table: "zonescan",
			Where: expr.Between{Expr: expr.ColRef{Name: arm.col}, Lo: 131072, Hi: 196607},
			Aggs: []engine.AggSpec{
				{Func: engine.Count},
				{Func: engine.Sum, Arg: expr.ColRef{Name: "v"}, Alias: "s"},
			},
		}
		b.Run(arm.name, func(b *testing.B) {
			opts := engine.ExecOptions{Parallelism: 4}
			b.ReportAllocs()
			b.ResetTimer()
			var evaluated, morsels int
			for i := 0; i < b.N; i++ {
				res, err := engine.RunOnOpts(tb, q, opts)
				if err != nil {
					b.Fatal(err)
				}
				evaluated = res.Stats.Morsels - res.Stats.SkippedMorsels
				morsels = res.Stats.Morsels
			}
			if b.N > 0 {
				b.ReportMetric(float64(evaluated), "morsels-evaluated")
				b.ReportMetric(float64(morsels), "morsels-total")
			}
		})
	}
}
