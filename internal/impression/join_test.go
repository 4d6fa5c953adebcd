package impression

import (
	"math"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/xrand"
)

// joinFixture builds a fact table with an FK to a quality dimension.
func joinFixture(t *testing.T, n int) (*table.Table, *table.Table) {
	t.Helper()
	fact := table.MustNew("fact", table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "fieldID", Type: column.Int64},
		{Name: "ra", Type: column.Float64},
	})
	r := xrand.New(31)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, table.Row{int64(i), int64(r.Intn(16)), 120 + r.Float64()*120})
	}
	if err := fact.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	dim := table.MustNew("Field", table.Schema{
		{Name: "fieldID", Type: column.Int64},
		{Name: "quality", Type: column.Float64},
	})
	for i := 0; i < 16; i++ {
		if err := dim.AppendRow(table.Row{int64(i), float64(i) / 16}); err != nil {
			t.Fatal(err)
		}
	}
	return fact, dim
}

func TestSynopsisPreservesRowsAndWeights(t *testing.T) {
	fact, dim := joinFixture(t, 5000)
	im, err := New(fact, Config{Name: "u", Size: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fact.Len(); i++ {
		im.Offer(int32(i))
	}
	joined, weights, err := Synopsis(im, []JoinSpec{{Dim: dim, FactKey: "fieldID", DimKey: "fieldID"}})
	if err != nil {
		t.Fatal(err)
	}
	// Complete FK dimension: no sample row is lost.
	if joined.Len() != 500 || len(weights) != 500 {
		t.Fatalf("joined %d rows, %d weights", joined.Len(), len(weights))
	}
	// The dimension column is present and consistent with the key.
	q, err := joined.Float64("quality")
	if err != nil {
		t.Fatal(err)
	}
	keys, err := joined.Int64("fieldID")
	if err != nil {
		t.Fatal(err)
	}
	for i := range q {
		if want := float64(keys[i]) / 16; q[i] != want {
			t.Fatalf("row %d: quality %v for fieldID %d", i, q[i], keys[i])
		}
	}
	// The reserved weight column must not leak into the result.
	if joined.Schema().Index(weightCol) != -1 {
		t.Fatal("weight column leaked into synopsis schema")
	}
}

func TestSynopsisDropsDanglingKeysLikeFullJoin(t *testing.T) {
	fact, dim := joinFixture(t, 2000)
	// Remove half the dimension rows: the sample join must drop exactly
	// the fact rows a full join would drop.
	halfDim := table.MustNew("Field", dim.Schema())
	for i := 0; i < 8; i++ {
		if err := halfDim.AppendRow(table.Row{int64(i), float64(i) / 16}); err != nil {
			t.Fatal(err)
		}
	}
	im, err := New(fact, Config{Name: "u", Size: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fact.Len(); i++ {
		im.Offer(int32(i))
	}
	joined, weights, err := Synopsis(im, []JoinSpec{{Dim: halfDim, FactKey: "fieldID", DimKey: "fieldID"}})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() >= 400 || joined.Len() == 0 {
		t.Fatalf("half-dimension join kept %d of 400", joined.Len())
	}
	if len(weights) != joined.Len() {
		t.Fatal("weights misaligned after dropping rows")
	}
	keys, _ := joined.Int64("fieldID")
	for _, k := range keys {
		if k >= 8 {
			t.Fatalf("dangling key %d survived the join", k)
		}
	}
}

func TestSynopsisEstimatesJoinAggregates(t *testing.T) {
	// COUNT over a predicate that spans the join (fact.ra range AND
	// dim.quality threshold) estimated from the synopsis must cover the
	// exact full-join answer — the paper's "more precise query results"
	// from maintained correlations.
	fact, dim := joinFixture(t, 40000)
	fullJoin, err := engine.HashJoin(fact, dim, "fieldID", "fieldID", engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.And{
		L: expr.Between{Expr: expr.ColRef{Name: "ra"}, Lo: 150, Hi: 200},
		R: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "quality"}, Right: 0.5},
	}
	exactSel, err := pred.Filter(fullJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := len(exactSel)

	im, err := New(fact, Config{Name: "u", Size: 4000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fact.Len(); i++ {
		im.Offer(int32(i))
	}
	joined, weights, err := Synopsis(im, []JoinSpec{{Dim: dim, FactKey: "fieldID", DimKey: "fieldID"}})
	if err != nil {
		t.Fatal(err)
	}
	// A standalone weighted table is a selection layer over itself.
	layer := estimate.SelLayer{
		Name: "synopsis", Base: joined, Positions: vec.NewSelAll(joined.Len()),
		Weights: weights, BaseRows: int64(fullJoin.Len()),
	}
	q := engine.Query{
		Table: "synopsis",
		Where: pred,
		Aggs:  []engine.AggSpec{{Func: engine.Count}},
	}
	ests, err := estimate.AggregateOnSelOpts(layer, q, 0.99, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !ests[0].Interval.Contains(float64(exact)) {
		t.Fatalf("join-synopsis count [%v, %v] misses exact %d",
			ests[0].Interval.Lo(), ests[0].Interval.Hi(), exact)
	}
	if rel := math.Abs(ests[0].Value()-float64(exact)) / float64(exact); rel > 0.15 {
		t.Fatalf("join-synopsis count off by %.1f%%", rel*100)
	}
}

func TestJoinWithWeightsValidation(t *testing.T) {
	fact, dim := joinFixture(t, 100)
	if _, _, err := JoinWithWeights(fact, []float64{1}, nil); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
	if _, _, err := JoinWithWeights(fact, nil, []JoinSpec{{Dim: nil}}); err == nil {
		t.Fatal("nil dimension accepted")
	}
	if _, _, err := JoinWithWeights(fact, nil, []JoinSpec{{Dim: dim, FactKey: "ra", DimKey: "fieldID"}}); err == nil {
		t.Fatal("non-integer join key accepted")
	}
	// nil weights default to 1.
	joined, w, err := JoinWithWeights(fact, nil, []JoinSpec{{Dim: dim, FactKey: "fieldID", DimKey: "fieldID"}})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 100 {
		t.Fatalf("joined %d rows", joined.Len())
	}
	for _, v := range w {
		if v != 1 {
			t.Fatalf("default weight %v", v)
		}
	}
}

func TestSynopsisMultiJoin(t *testing.T) {
	fact, dim := joinFixture(t, 1000)
	tag := table.MustNew("Tag", table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "petroRad", Type: column.Float64},
	})
	for i := 0; i < 1000; i++ {
		if err := tag.AppendRow(table.Row{int64(i), float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	im, err := New(fact, Config{Name: "u", Size: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fact.Len(); i++ {
		im.Offer(int32(i))
	}
	joined, weights, err := Synopsis(im, []JoinSpec{
		{Dim: dim, FactKey: "fieldID", DimKey: "fieldID"},
		{Dim: tag, FactKey: "objID", DimKey: "objID"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 200 || len(weights) != 200 {
		t.Fatalf("multi-join synopsis: %d rows, %d weights", joined.Len(), len(weights))
	}
	if _, err := joined.Float64("quality"); err != nil {
		t.Fatal("first dimension column missing")
	}
	if _, err := joined.Float64("petroRad"); err != nil {
		t.Fatal("second dimension column missing")
	}
}
