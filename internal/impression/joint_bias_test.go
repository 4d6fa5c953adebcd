package impression

import (
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// crossBase builds a base table uniform over the square so the sampler
// alone decides what concentrates where.
func crossBase(t *testing.T, n int) *table.Table {
	t.Helper()
	tb := table.MustNew("base", table.Schema{
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
	})
	r := xrand.New(61)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, table.Row{120 + r.Float64()*120, r.Float64() * 60})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

// correlatedLogger logs interest ONLY at (150, 10) and (210, 50): the
// cross-products (150, 50) and (210, 10) are never requested.
func correlatedLogger(t *testing.T, joint bool) *workload.Logger {
	t.Helper()
	l, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: 30},
		{Name: "dec", Min: 0, Max: 60, Beta: 30},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if joint {
		if err := l.TrackJoint("ra", "dec", 30, 30); err != nil {
			t.Fatal(err)
		}
	}
	r := xrand.New(62)
	for i := 0; i < 400; i++ {
		var ra, dec float64
		if i%2 == 0 {
			ra, dec = 150+r.NormFloat64()*3, 10+r.NormFloat64()*3
		} else {
			ra, dec = 210+r.NormFloat64()*3, 50+r.NormFloat64()*3
		}
		l.LogPoints([]expr.Point{{Attr: "ra", Value: ra}, {Attr: "dec", Value: dec}})
	}
	return l
}

// regionCount counts sampled tuples within ±8 of a centre.
func regionCount(t *testing.T, im *Impression, ra0, dec0 float64) int {
	t.Helper()
	ra := sampled(t, im, "ra")
	dec := sampled(t, im, "dec")
	in := 0
	for i := range ra {
		if ra[i] > ra0-8 && ra[i] < ra0+8 && dec[i] > dec0-8 && dec[i] < dec0+8 {
			in++
		}
	}
	return in
}

func TestJointConfigValidation(t *testing.T) {
	base := crossBase(t, 100)
	l := correlatedLogger(t, false)
	// Joint without joint tracking on the logger.
	_, err := New(base, Config{
		Size: 10, Policy: Biased, Logger: l, Attrs: []string{"ra", "dec"}, Joint: true,
	})
	if err == nil {
		t.Fatal("joint bias without TrackJoint accepted")
	}
	// Joint with wrong attribute count.
	lj := correlatedLogger(t, true)
	_, err = New(base, Config{
		Size: 10, Policy: Biased, Logger: lj, Attrs: []string{"ra"}, Joint: true,
	})
	if err == nil {
		t.Fatal("joint bias with one attribute accepted")
	}
}

func TestJointBiasSuppressesCrossProducts(t *testing.T) {
	const n, size = 40000, 2000
	base := crossBase(t, n)

	// Marginal (product/geometric-mean) bias: cross-products leak.
	lm := correlatedLogger(t, false)
	marginal, err := New(base, Config{
		Name: "marginal", Size: size, Policy: Biased,
		Logger: lm, Attrs: []string{"ra", "dec"}, Seed: 63,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Joint bias: correlation preserved.
	lj := correlatedLogger(t, true)
	joint, err := New(base, Config{
		Name: "joint", Size: size, Policy: Biased,
		Logger: lj, Attrs: []string{"ra", "dec"}, Joint: true, Seed: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		marginal.Offer(int32(i))
		joint.Offer(int32(i))
	}

	// Both must concentrate on the true foci.
	jFocus := regionCount(t, joint, 150, 10) + regionCount(t, joint, 210, 50)
	mFocus := regionCount(t, marginal, 150, 10) + regionCount(t, marginal, 210, 50)
	if jFocus < size/5 || mFocus < size/5 {
		t.Fatalf("focus mass too small: joint=%d marginal=%d", jFocus, mFocus)
	}

	// Cross-products: the joint sampler must hold several times fewer
	// phantom tuples than the marginal sampler.
	jCross := regionCount(t, joint, 150, 50) + regionCount(t, joint, 210, 10)
	mCross := regionCount(t, marginal, 150, 50) + regionCount(t, marginal, 210, 10)
	if mCross < 50 {
		t.Fatalf("marginal sampler did not exhibit cross-product leakage (%d); fixture broken", mCross)
	}
	if jCross*3 >= mCross {
		t.Fatalf("joint bias did not suppress cross-products: joint=%d marginal=%d", jCross, mCross)
	}
}

func TestJointTrackingDecay(t *testing.T) {
	l := correlatedLogger(t, true)
	h, err := l.Joint("ra", "dec")
	if err != nil {
		t.Fatal(err)
	}
	if h.N == 0 {
		t.Fatal("joint histogram empty")
	}
	l.Decay(0)
	h2, _ := l.Joint("ra", "dec")
	if h2.N != 0 {
		t.Fatal("joint histogram survived decay")
	}
}

func TestJointSnapshotIsolation(t *testing.T) {
	l := correlatedLogger(t, true)
	snap, err := l.Joint("ra", "dec")
	if err != nil {
		t.Fatal(err)
	}
	before := snap.N
	l.LogPoints([]expr.Point{{Attr: "ra", Value: 150}, {Attr: "dec", Value: 10}})
	if snap.N != before {
		t.Fatal("snapshot observed later writes")
	}
	live, err := l.LiveJoint("ra", "dec")
	if err != nil {
		t.Fatal(err)
	}
	if live.N != before+1 {
		t.Fatal("live joint view missed write")
	}
}

func TestTrackJointValidation(t *testing.T) {
	l := correlatedLogger(t, false)
	if err := l.TrackJoint("ra", "zzz", 10, 10); err == nil {
		t.Fatal("untracked second attribute accepted")
	}
	if err := l.TrackJoint("zzz", "dec", 10, 10); err == nil {
		t.Fatal("untracked first attribute accepted")
	}
	if err := l.TrackJoint("ra", "ra", 10, 10); err == nil {
		t.Fatal("self-pair accepted")
	}
	if err := l.TrackJoint("ra", "dec", 10, 10); err != nil {
		t.Fatal(err)
	}
	if err := l.TrackJoint("ra", "dec", 10, 10); err == nil {
		t.Fatal("double joint tracking accepted")
	}
	if _, err := l.Joint("dec", "ra"); err == nil {
		t.Fatal("reversed pair lookup should miss (pairs are ordered)")
	}
}
