package estimate

import (
	"math"
	"reflect"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/impression"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// clampedFixture builds the regime where acceptance clamps: a biased
// impression at n/N = 10% with strong focal interest, where the bias
// factor alone misrepresents sample composition and CountWeights (the
// inclusion probabilities) are required for share estimates.
func clampedFixture(t *testing.T) (SelLayer, *table.Table) {
	t.Helper()
	const N, n = 40000, 4000
	tb := table.MustNew("base", table.Schema{
		{Name: "ra", Type: column.Float64},
	})
	r := xrand.New(51)
	rows := make([]table.Row, 0, N)
	for i := 0; i < N; i++ {
		rows = append(rows, table.Row{120 + r.Float64()*120})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	logger, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		logger.LogPoints([]expr.Point{{Attr: "ra", Value: 165 + r.NormFloat64()*4}})
	}
	im, err := impression.New(tb, impression.Config{
		Name: "clamped", Size: n, Policy: impression.Biased,
		Logger: logger, Attrs: []string{"ra"}, Seed: 52,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		im.Offer(int32(i))
	}
	return viewLayer(im, N), tb
}

func TestCountWeightsFixClampedCounts(t *testing.T) {
	layer, base := clampedFixture(t)
	ra, _ := base.Float64("ra")
	exact := 0
	for _, v := range ra {
		if v >= 160 && v < 170 {
			exact++
		}
	}
	pred := expr.And{
		L: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "ra"}, Right: 160},
		R: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "ra"}, Right: 170},
	}
	q := engine.Query{Table: "c", Where: pred, Aggs: []engine.AggSpec{{Func: engine.Count}}}

	// With inclusion weights: the focal count must be in the right
	// ballpark (within 35% — the clamped regime is the documented worst
	// case) and covered at 99%.
	withPi, err := AggregateOnSelOpts(layer, q, 0.99, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotPi := withPi[0].Value()

	// Without them (ratio-weight fallback): the same count is far off —
	// the failure mode that motivated the two-vector design.
	noPi := layer
	noPi.CountWeights = nil
	withW, err := AggregateOnSelOpts(noPi, q, 0.99, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	gotW := withW[0].Value()

	relPi := abs(gotPi-float64(exact)) / float64(exact)
	relW := abs(gotW-float64(exact)) / float64(exact)
	if relPi > 0.35 {
		t.Fatalf("inclusion-weighted count off by %.0f%% (got %v, exact %d)", relPi*100, gotPi, exact)
	}
	if relW < relPi {
		t.Fatalf("ratio-weight fallback (%.0f%% error) beat inclusion weights (%.0f%%); fixture not in clamped regime",
			relW*100, relPi*100)
	}
}

func TestCountWeightsValidation(t *testing.T) {
	layer, _ := clampedFixture(t)
	layer.CountWeights = layer.CountWeights[:1]
	if err := layer.Validate(); err == nil {
		t.Fatal("count-weight length mismatch accepted")
	}
}

func TestAvgStillUsesRatioWeights(t *testing.T) {
	// AVG must be driven by Weights, not CountWeights: poisoning the
	// CountWeights must not change an AVG estimate.
	layer, _ := clampedFixture(t)
	q := engine.Query{Table: "c", Aggs: []engine.AggSpec{
		{Func: engine.Avg, Arg: expr.ColRef{Name: "ra"}, Alias: "a"}}}
	before, err := AggregateOnSelOpts(layer, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	poisoned := make([]float64, len(layer.CountWeights))
	for i := range poisoned {
		poisoned[i] = 1e-9
	}
	layer.CountWeights = poisoned
	after, err := AggregateOnSelOpts(layer, q, 0.95, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if before[0].Value() != after[0].Value() {
		t.Fatal("AVG estimate depends on CountWeights")
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestViewShareSumsMatchWeightSums: the share-weight sums a biased view
// precomputes are bit-identical to summing the layer per query, so are
// the estimates built on them, and a view clamped to a prefix drops
// its whole-view sums rather than keep stale ones.
func TestViewShareSumsMatchWeightSums(t *testing.T) {
	l, _ := clampedFixture(t)
	if l.ShareSums == nil {
		t.Fatal("biased view carries no share sums")
	}
	bare := l
	bare.ShareSums = nil
	u, u2 := weightSums(l)
	bu, bu2 := weightSums(bare)
	if math.Float64bits(u) != math.Float64bits(bu) || math.Float64bits(u2) != math.Float64bits(bu2) {
		t.Fatalf("view sums (%v, %v), per-query sums (%v, %v)", u, u2, bu, bu2)
	}
	q := engine.Query{
		Where: expr.Between{Expr: expr.ColRef{Name: "ra"}, Lo: 150, Hi: 170},
		Aggs:  []engine.AggSpec{{Func: engine.Count}, {Func: engine.Sum, Arg: expr.ColRef{Name: "ra"}}},
	}
	got, err := AggregateOnSelOpts(l, q, 0.95, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AggregateOnSelOpts(bare, q, 0.95, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates with view sums %+v, without %+v", got, want)
	}

	v := impression.View{Positions: l.Positions, Weights: l.Weights, Pis: l.CountWeights, ShareSums: l.ShareSums}
	if c := v.Clamp(int(l.Positions[len(l.Positions)-1]) + 1); c.ShareSums != l.ShareSums {
		t.Fatal("a clamp that cuts nothing dropped the view sums")
	}
	cut := v.Clamp(int(l.Positions[len(l.Positions)/2]))
	if cut.ShareSums != nil {
		t.Fatal("a clamp that cuts positions kept the whole-view sums")
	}
	cl := SelLayer{Positions: cut.Positions, Weights: cut.Weights, CountWeights: cut.Pis, ShareSums: cut.ShareSums}
	cu, cu2 := weightSums(cl)
	if ref := stats.SumInvWeights(cut.Pis); cu != ref.U || cu2 != ref.U2 || cu == u {
		t.Fatalf("clamped sums (%v, %v), prefix sums %+v, whole view %v", cu, cu2, ref, u)
	}
}
