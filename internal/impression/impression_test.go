package impression

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// buildBase creates a base table with a bimodal ra distribution and
// appends rows through the impression, as the loader would.
func buildBase(t *testing.T, n int, seed uint64) *table.Table {
	t.Helper()
	tb := table.MustNew("PhotoObjAll", table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
	})
	r := xrand.New(seed)
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		ra := 120 + r.Float64()*120 // uniform [120, 240)
		dec := r.Float64() * 60
		rows = append(rows, table.Row{int64(i), ra, dec})
	}
	if err := tb.AppendBatch(rows); err != nil {
		t.Fatal(err)
	}
	return tb
}

// sampled reads a base column at the impression's view positions.
func sampled(t *testing.T, im *Impression, col string) []float64 {
	t.Helper()
	data, err := im.Base().Float64(col)
	if err != nil {
		t.Fatal(err)
	}
	return vec.GatherFloat64(data, im.View().Positions)
}

func focusedLogger(t *testing.T) *workload.Logger {
	t.Helper()
	l, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: 30},
		{Name: "dec", Min: 0, Max: 60, Beta: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(77)
	for i := 0; i < 400; i++ {
		// Interest focused tightly on ra≈160.
		l.LogQuery(expr.Cone{RaCol: "ra", DecCol: "dec",
			Ra0: 160 + r.NormFloat64()*4, Dec0: 30 + r.NormFloat64()*4, Radius: 2})
	}
	return l
}

func TestNewValidation(t *testing.T) {
	base := buildBase(t, 10, 1)
	if _, err := New(nil, Config{Size: 5}); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := New(base, Config{Size: 0}); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := New(base, Config{Size: 5, Policy: Biased}); err == nil {
		t.Fatal("biased without logger accepted")
	}
	l := focusedLogger(t)
	if _, err := New(base, Config{Size: 5, Policy: Biased, Logger: l, Attrs: []string{"zzz"}}); err == nil {
		t.Fatal("untracked bias attribute accepted")
	}
	if _, err := New(base, Config{Size: 5, Policy: Policy(99)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := New(base, Config{Size: 5, Policy: LastSeen, K: 5, D: 2}); err == nil {
		t.Fatal("k > D accepted")
	}
}

func TestDefaultName(t *testing.T) {
	base := buildBase(t, 10, 1)
	im, err := New(base, Config{Size: 5})
	if err != nil {
		t.Fatal(err)
	}
	if im.Name() == "" || im.Policy() != Uniform || im.Cap() != 5 {
		t.Fatalf("metadata: %q %v %d", im.Name(), im.Policy(), im.Cap())
	}
}

func TestUniformImpression(t *testing.T) {
	base := buildBase(t, 5000, 2)
	im, err := New(base, Config{Name: "u", Size: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base.Len(); i++ {
		im.Offer(int32(i))
	}
	if im.Len() != 500 || im.Offered() != 5000 {
		t.Fatalf("len=%d offered=%d", im.Len(), im.Offered())
	}
	v := im.View()
	if len(v.Positions) != 500 || v.Weights != nil || v.Pis != nil {
		t.Fatalf("view: %d positions, weights %v, pis %v (uniform wants nil)",
			len(v.Positions), v.Weights != nil, v.Pis != nil)
	}
	// Sample mean of ra should approximate the population mean (~180).
	ra := sampled(t, im, "ra")
	var sum float64
	for _, v := range ra {
		sum += v
	}
	if mean := sum / float64(len(ra)); math.Abs(mean-180) > 5 {
		t.Fatalf("uniform sample ra mean = %v", mean)
	}
}

func TestBiasedImpressionFocus(t *testing.T) {
	base := buildBase(t, 60000, 5)
	logger := focusedLogger(t)
	im, err := New(base, Config{
		Name: "b", Size: 2000, Policy: Biased,
		Logger: logger, Attrs: []string{"ra"}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base.Len(); i++ {
		im.Offer(int32(i))
	}
	weights := im.View().Weights
	ra := sampled(t, im, "ra")
	// The base is uniform on [120,240); interest is at ra≈160±4. The
	// biased impression must hold far more focal tuples than the 6.7%
	// a uniform sample would give for the window [152,168].
	focal := 0
	for _, v := range ra {
		if v >= 152 && v <= 168 {
			focal++
		}
	}
	frac := float64(focal) / float64(len(ra))
	if frac < 0.3 {
		t.Fatalf("focal fraction = %v, want >> 0.067 (uniform rate)", frac)
	}
	// Weights of focal tuples must exceed weights of anti-focal ones.
	var wFocal, wAnti, nFocal, nAnti float64
	for i, v := range ra {
		if v >= 152 && v <= 168 {
			wFocal += weights[i]
			nFocal++
		} else if v >= 200 {
			wAnti += weights[i]
			nAnti++
		}
	}
	if nFocal > 0 && nAnti > 0 && wFocal/nFocal <= wAnti/nAnti {
		t.Fatalf("focal weight %v not above anti-focal %v", wFocal/nFocal, wAnti/nAnti)
	}
}

func TestBiasedMultiAttribute(t *testing.T) {
	base := buildBase(t, 20000, 6)
	logger := focusedLogger(t)
	im, err := New(base, Config{
		Name: "b2", Size: 1000, Policy: Biased,
		Logger: logger, Attrs: []string{"ra", "dec"}, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base.Len(); i++ {
		im.Offer(int32(i))
	}
	ra := sampled(t, im, "ra")
	dec := sampled(t, im, "dec")
	both := 0
	for i := range ra {
		if math.Abs(ra[i]-160) < 10 && math.Abs(dec[i]-30) < 10 {
			both++
		}
	}
	// Uniform rate for that square is (20/120)*(20/60) ≈ 5.6%.
	if frac := float64(both) / float64(len(ra)); frac < 0.2 {
		t.Fatalf("2-D focal fraction = %v", frac)
	}
}

func TestLastSeenImpression(t *testing.T) {
	base := buildBase(t, 30000, 9)
	im, err := New(base, Config{
		Name: "ls", Size: 300, Policy: LastSeen, K: 150, D: 1000, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < base.Len(); i++ {
		im.Offer(int32(i))
	}
	recent := 0
	for _, s := range im.Samples() {
		if s.Pos >= 15000 {
			recent++
		}
	}
	if frac := float64(recent) / 300; frac < 0.9 {
		t.Fatalf("recent fraction = %v; Last Seen must favour fresh tuples", frac)
	}
}

func TestSamplesWeightAlignment(t *testing.T) {
	base := buildBase(t, 1000, 11)
	logger := focusedLogger(t)
	im, _ := New(base, Config{
		Name: "align", Size: 100, Policy: Biased,
		Logger: logger, Attrs: []string{"ra"}, Seed: 12,
	})
	for i := 0; i < base.Len(); i++ {
		im.Offer(int32(i))
	}
	samples := im.Samples()
	byPos := make(map[int32]Sample, len(samples))
	for _, s := range samples {
		byPos[s.Pos] = s
	}
	v := im.View()
	if len(v.Positions) != len(samples) || len(v.Weights) != len(samples) || len(v.Pis) != len(samples) {
		t.Fatalf("view %d/%d/%d rows for %d samples", len(v.Positions), len(v.Weights), len(v.Pis), len(samples))
	}
	for i, pos := range v.Positions {
		s, ok := byPos[pos]
		if !ok {
			t.Fatalf("view row %d: position %d not sampled", i, pos)
		}
		if v.Weights[i] != s.Weight || v.Pis[i] != s.Pi {
			t.Fatalf("view row %d (pos %d): weight/pi %v/%v != sample %v/%v",
				i, pos, v.Weights[i], v.Pis[i], s.Weight, s.Pi)
		}
	}
}

func TestHierarchyValidation(t *testing.T) {
	base := buildBase(t, 100, 13)
	l0, _ := New(base, Config{Name: "l0", Size: 50, Seed: 1})
	l1, _ := New(base, Config{Name: "l1", Size: 50, Seed: 2})
	if _, err := NewHierarchy(nil, 0); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
	if _, err := NewHierarchy([]*Impression{l0, l1}, 0); err == nil {
		t.Fatal("non-decreasing sizes accepted")
	}
	other := buildBase(t, 100, 14)
	o1, _ := New(other, Config{Name: "o1", Size: 10, Seed: 3})
	if _, err := NewHierarchy([]*Impression{l0, o1}, 0); err == nil {
		t.Fatal("mixed base tables accepted")
	}
}

func TestHierarchyOfferAndRefresh(t *testing.T) {
	base := buildBase(t, 20000, 15)
	l0, _ := New(base, Config{Name: "l0", Size: 2000, Seed: 1})
	l1, _ := New(base, Config{Name: "l1", Size: 200, Seed: 2})
	l2, _ := New(base, Config{Name: "l2", Size: 20, Seed: 3})
	h, err := NewHierarchy([]*Impression{l0, l1, l2}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h.OfferRange(0, int32(base.Len()))
	if l0.Len() != 2000 {
		t.Fatalf("layer0 len = %d", l0.Len())
	}
	if l1.Len() != 200 || l2.Len() != 20 {
		t.Fatalf("derived layers: %d, %d", l1.Len(), l2.Len())
	}
	// Derived layers must contain only positions present in their parent.
	parent := make(map[int32]bool)
	for _, s := range l0.Samples() {
		parent[s.Pos] = true
	}
	for _, s := range l1.Samples() {
		if !parent[s.Pos] {
			t.Fatalf("layer1 holds position %d absent from layer0", s.Pos)
		}
	}
}

// TestOfferRangeMatchesPerRowOffers: for every policy, offering a
// stream in batches — batches that straddle, start and end on the
// refresh points — leaves the impressions and the hierarchy exactly
// where one offer per row leaves them: the same samples, weights,
// versions and offer counts on every layer after every batch, so the
// smaller layers were refreshed at the same rows from the same parent.
func TestOfferRangeMatchesPerRowOffers(t *testing.T) {
	const rows, refreshEvery = 4500, 500
	base := buildBase(t, rows, 21)
	logger := focusedLogger(t)
	configs := map[string]Config{
		"uniform":  {Policy: Uniform},
		"lastseen": {Policy: LastSeen, K: 100, D: 1000},
		"biased":   {Policy: Biased, Logger: logger, Attrs: []string{"ra", "dec"}},
	}
	batches := []int32{1, 499, 500, 1, 998, 2, 1250, 3, 500, 746}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			mk := func(size int, seed uint64) *Impression {
				c := cfg
				c.Name, c.Size, c.Seed = fmt.Sprintf("%s-%d", name, size), size, seed
				im, err := New(base, c)
				if err != nil {
					t.Fatal(err)
				}
				return im
			}
			hier := func() *Hierarchy {
				h, err := NewHierarchy([]*Impression{mk(800, 1), mk(80, 2), mk(8, 3)}, refreshEvery)
				if err != nil {
					t.Fatal(err)
				}
				return h
			}
			perRow, ranged := hier(), hier()
			single, batched := mk(400, 4), mk(400, 4)
			lo := int32(0)
			for _, n := range batches {
				hi := min(lo+n, rows)
				for pos := lo; pos < hi; pos++ {
					perRow.OfferRange(pos, pos+1)
					single.Offer(pos)
				}
				ranged.OfferRange(lo, hi)
				batched.OfferRange(lo, hi)
				assertSameImpression(t, hi, single, batched)
				want, got := perRow.Layers(), ranged.Layers()
				for i := range want {
					assertSameImpression(t, hi, want[i], got[i])
				}
				lo = hi
			}
			if lo != rows {
				t.Fatalf("batches cover %d rows, want %d", lo, rows)
			}
		})
	}
}

// assertSameImpression fails unless got holds exactly want's samples,
// version and offer count after the first end rows.
func assertSameImpression(t *testing.T, end int32, want, got *Impression) {
	t.Helper()
	if want.Version() != got.Version() || want.Offered() != got.Offered() {
		t.Fatalf("%s after %d rows: version/offered %d/%d, per-row %d/%d",
			got.Name(), end, got.Version(), got.Offered(), want.Version(), want.Offered())
	}
	if ws, gs := want.Samples(), got.Samples(); !slices.Equal(ws, gs) {
		t.Fatalf("%s after %d rows: %d samples differ from the per-row %d", got.Name(), end, len(gs), len(ws))
	}
}

func TestHierarchyAscending(t *testing.T) {
	base := buildBase(t, 1000, 16)
	l0, _ := New(base, Config{Name: "l0", Size: 500, Seed: 1})
	l1, _ := New(base, Config{Name: "l1", Size: 50, Seed: 2})
	h, _ := NewHierarchy([]*Impression{l0, l1}, 100)
	asc := h.Ascending()
	if asc[0].Cap() != 50 || asc[1].Cap() != 500 {
		t.Fatalf("ascending order wrong: %d, %d", asc[0].Cap(), asc[1].Cap())
	}
}

func TestBiasedHierarchyInheritsFocus(t *testing.T) {
	// §3.1: "the focal point of the larger impression is inherited by
	// the smaller". The small derived layer must still over-represent
	// the focal region.
	base := buildBase(t, 40000, 18)
	logger := focusedLogger(t)
	mk := func(name string, size int, seed uint64) *Impression {
		im, err := New(base, Config{
			Name: name, Size: size, Policy: Biased,
			Logger: logger, Attrs: []string{"ra"}, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return im
	}
	l0 := mk("l0", 4000, 1)
	l1 := mk("l1", 400, 2)
	h, _ := NewHierarchy([]*Impression{l0, l1}, 2000)
	h.OfferRange(0, int32(base.Len()))
	h.Refresh()
	ra := sampled(t, l1, "ra")
	focal := 0
	for _, v := range ra {
		if v >= 152 && v <= 168 {
			focal++
		}
	}
	if frac := float64(focal) / float64(len(ra)); frac < 0.25 {
		t.Fatalf("derived layer focal fraction = %v", frac)
	}
}

func TestPolicyString(t *testing.T) {
	if Uniform.String() != "uniform" || LastSeen.String() != "last-seen" ||
		Biased.String() != "biased" || Policy(9).String() != "unknown" {
		t.Fatal("policy names wrong")
	}
}
