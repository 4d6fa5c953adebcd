package workload

import (
	"math"
	"testing"

	"sciborq/internal/expr"
	"sciborq/internal/vec"
	"sciborq/internal/xrand"
)

func raDecAttrs() []AttrSpec {
	return []AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: 30},
		{Name: "dec", Min: 0, Max: 60, Beta: 30},
	}
}

func TestNewLoggerValidation(t *testing.T) {
	if _, err := NewLogger(nil); err == nil {
		t.Fatal("empty attr list accepted")
	}
	if _, err := NewLogger([]AttrSpec{{Name: "a", Min: 0, Max: 1, Beta: 0}}); err == nil {
		t.Fatal("beta=0 accepted")
	}
	dup := []AttrSpec{
		{Name: "a", Min: 0, Max: 1, Beta: 2},
		{Name: "a", Min: 0, Max: 2, Beta: 2},
	}
	if _, err := NewLogger(dup); err == nil {
		t.Fatal("duplicate attribute accepted")
	}
}

func TestLogQueryExtractsConePoints(t *testing.T) {
	l, err := NewLogger(raDecAttrs())
	if err != nil {
		t.Fatal(err)
	}
	l.LogQuery(expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: 185, Dec0: 30, Radius: 3})
	h, err := l.Histogram("ra")
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 1 {
		t.Fatalf("ra histogram N = %d", h.N)
	}
	if got := h.Bins[h.BinIndex(185)].Count; got != 1 {
		t.Fatalf("185 not recorded: %d", got)
	}
	hd, _ := l.Histogram("dec")
	if hd.N != 1 || hd.Bins[hd.BinIndex(30)].Count != 1 {
		t.Fatal("dec point not recorded")
	}
	if l.Queries() != 1 {
		t.Fatalf("queries = %d", l.Queries())
	}
}

func TestLogQueryIgnoresUntrackedAttrs(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	l.LogQuery(expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "rmag"}, Right: 17})
	ra, _ := l.Histogram("ra")
	if ra.N != 0 {
		t.Fatal("untracked attribute leaked into ra histogram")
	}
	if l.Queries() != 1 {
		t.Fatal("query not counted")
	}
}

func TestLogQueryNilAndCompound(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	l.LogQuery(nil)
	if l.Queries() != 0 {
		t.Fatal("nil query counted")
	}
	p := expr.And{
		L: expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: "ra"}, Right: 150},
		R: expr.Between{Expr: expr.ColRef{Name: "dec"}, Lo: 10, Hi: 20},
	}
	l.LogQuery(p)
	ra, _ := l.Histogram("ra")
	dec, _ := l.Histogram("dec")
	if ra.N != 1 || dec.N != 1 {
		t.Fatalf("compound points not logged: ra=%d dec=%d", ra.N, dec.N)
	}
	// Between logs its midpoint.
	if dec.Bins[dec.BinIndex(15)].Count != 1 {
		t.Fatal("between midpoint not logged")
	}
}

func TestHistogramUnknownAttr(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	if _, err := l.Histogram("nope"); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := l.Live("nope"); err == nil {
		t.Fatal("unknown live attribute accepted")
	}
}

func TestHistogramSnapshotIsolation(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	snap, _ := l.Histogram("ra")
	before, _ := l.Live("ra")
	l.LogPoints([]expr.Point{{Attr: "ra", Value: 130}})
	if snap.N != 0 {
		t.Fatal("snapshot observed later writes")
	}
	if before.N != 0 {
		t.Fatal("live snapshot observed a later write")
	}
	live, _ := l.Live("ra")
	if live.N != 1 {
		t.Fatal("live view missed write")
	}
	// One clone per generation: the per-row bias path calls Live for
	// every offered tuple, so a quiescent workload must not re-clone.
	if again, _ := l.Live("ra"); again != live {
		t.Fatal("Live re-cloned without an intervening write")
	}
	l.LogPoints([]expr.Point{{Attr: "ra", Value: 131}})
	afterWrite, _ := l.Live("ra")
	if afterWrite == live || afterWrite.N != 2 || live.N != 1 {
		t.Fatalf("write: fresh=%v N=%d, old N=%d", afterWrite != live, afterWrite.N, live.N)
	}
	l.Decay(0.5)
	afterDecay, _ := l.Live("ra")
	if afterDecay == afterWrite || afterDecay.N != 1 || afterWrite.N != 2 {
		t.Fatalf("decay: fresh=%v N=%d, old N=%d", afterDecay != afterWrite, afterDecay.N, afterWrite.N)
	}
}

// TestLogPointsZeroAlloc pins the logger's per-query footprint: logging
// a query's points only bumps histogram bins, so a daemon that logs
// every query holds no memory that grows with the query count.
func TestLogPointsZeroAlloc(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	pts := []expr.Point{{Attr: "ra", Value: 185}, {Attr: "dec", Value: 30}, {Attr: "rmag", Value: 17}}
	if allocs := testing.AllocsPerRun(1000, func() { l.LogPoints(pts) }); allocs != 0 {
		t.Fatalf("LogPoints allocated %v times per call, want 0", allocs)
	}
}

func TestAttrsSorted(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	attrs := l.Attrs()
	if len(attrs) != 2 || attrs[0] != "dec" || attrs[1] != "ra" {
		t.Fatalf("attrs = %v", attrs)
	}
}

func TestLoggerDecay(t *testing.T) {
	l, _ := NewLogger(raDecAttrs())
	for i := 0; i < 100; i++ {
		l.LogPoints([]expr.Point{{Attr: "ra", Value: 130}})
	}
	l.Decay(0.5)
	h, _ := l.Histogram("ra")
	if h.N != 50 {
		t.Fatalf("decayed N = %d", h.N)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := NewGenerator(nil, r); err == nil {
		t.Fatal("no focal points accepted")
	}
	if _, err := NewGenerator(Figure4Focals(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	bad := []FocalPoint{{Ra: 1, Dec: 1, Weight: 0}}
	if _, err := NewGenerator(bad, r); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestGeneratorClustersAroundFocals(t *testing.T) {
	g, err := NewGenerator(Figure4Focals(), xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	nearA, nearB := 0, 0
	for _, c := range g.NextN(n) {
		if math.Abs(c.Ra0-160) < 24 {
			nearA++
		}
		if math.Abs(c.Ra0-210) < 15 {
			nearB++
		}
		if c.RaCol != "ra" || c.DecCol != "dec" {
			t.Fatal("generated cone misbound columns")
		}
	}
	if fa := float64(nearA) / n; fa < 0.45 || fa > 0.75 {
		t.Fatalf("focal A fraction = %v, want ~0.6", fa)
	}
	if fb := float64(nearB) / n; fb < 0.25 || fb > 0.55 {
		t.Fatalf("focal B fraction = %v, want ~0.4", fb)
	}
}

func TestGeneratorDefaultRadius(t *testing.T) {
	g, _ := NewGenerator([]FocalPoint{{Ra: 1, Dec: 1, Weight: 1}}, xrand.New(1))
	if c := g.Next(); c.Radius != 1 {
		t.Fatalf("default radius = %v", c.Radius)
	}
}

func TestGeneratorShift(t *testing.T) {
	g, _ := NewGenerator([]FocalPoint{{Ra: 150, Dec: 10, SigmaRa: 1, SigmaDec: 1, Weight: 1}}, xrand.New(7))
	if err := g.Shift([]FocalPoint{{Ra: 230, Dec: 50, SigmaRa: 1, SigmaDec: 1, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range g.NextN(100) {
		if math.Abs(c.Ra0-230) > 10 {
			t.Fatalf("post-shift query at ra=%v", c.Ra0)
		}
	}
	if err := g.Shift(nil); err == nil {
		t.Fatal("empty shift accepted")
	}
}

func TestGeneratorFeedsLoggerFigure4Shape(t *testing.T) {
	// End to end: 400 queries as in Figure 4, predicate set must be
	// bimodal on ra.
	l, _ := NewLogger(raDecAttrs())
	g, _ := NewGenerator(Figure4Focals(), xrand.New(9))
	for _, c := range g.NextN(400) {
		l.LogQuery(c)
	}
	h, _ := l.Histogram("ra")
	if h.N != 400 {
		t.Fatalf("predicate set size = %d, want 400", h.N)
	}
	peakA := h.Bins[h.BinIndex(160)].Count
	peakB := h.Bins[h.BinIndex(210)].Count
	valley := h.Bins[h.BinIndex(185)].Count
	if peakA <= valley*2 || peakB <= valley*2 {
		t.Fatalf("not bimodal: peaks %d/%d valley %d", peakA, peakB, valley)
	}
}
