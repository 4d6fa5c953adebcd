package impression

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"sciborq/internal/reservoir"
	"sciborq/internal/stats"
	"sciborq/internal/vec"
	"sciborq/internal/xrand"
)

// ReplaceFrom is the reference refresh: it rebuilds this impression by
// subsampling the given parent samples uniformly without replacement,
// running Algorithm R over the Sample values themselves. Each chosen
// sample keeps weight parentWeight · n/len(parent). refreshFrom must
// reproduce it bit for bit.
func (im *Impression) ReplaceFrom(parent []Sample) error {
	im.mu.Lock()
	defer im.mu.Unlock()
	im.version++
	im.viewOK = false
	im.markViewFullLocked()
	im.thins = nil
	if len(parent) == 0 {
		im.derived = []factored{}
		return nil
	}
	r, err := reservoir.NewR[Sample](im.cfg.Size, im.rng)
	if err != nil {
		return err
	}
	for _, s := range parent {
		r.Offer(s)
	}
	chosen := r.Items()
	thin := float64(len(chosen)) / float64(len(parent))
	if thin > 1 {
		thin = 1
	}
	derived := make([]factored, len(chosen))
	for i, s := range chosen {
		// Pi stored whole: 1 · exp(0 · 0) reads it back unchanged.
		derived[i] = factored{Pos: s.Pos, Weight: s.Weight * thin, inc: reservoir.Inclusion{PAccept: s.Pi * thin}}
	}
	im.derived = derived
	return nil
}

// refHierarchy drives a layer stack the way Hierarchy does, refreshing
// through ReplaceFrom(parent.Samples()).
type refHierarchy struct {
	layers       []*Impression
	every, since int64
}

func (r *refHierarchy) offerRange(t *testing.T, lo, hi int32) {
	for lo < hi {
		end := hi
		if due := r.every - r.since; int64(hi-lo) > due {
			end = lo + int32(due)
		}
		r.layers[0].OfferRange(lo, end)
		r.since += int64(end - lo)
		if r.since >= r.every {
			r.since = 0
			r.refresh(t)
		}
		lo = end
	}
	if n := len(r.layers); r.layers[n-1].Len() == 0 && r.layers[0].Len() > 0 {
		r.refresh(t)
	}
}

func (r *refHierarchy) refresh(t *testing.T) {
	t.Helper()
	for i := 1; i < len(r.layers); i++ {
		if err := r.layers[i].ReplaceFrom(r.layers[i-1].Samples()); err != nil {
			t.Fatal(err)
		}
	}
}

// sameBits reports whether two sample sets are equal, weights compared
// by their bit patterns.
func sameBits(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		return x.Pos == y.Pos && math.Float64bits(x.Weight) == math.Float64bits(y.Weight) &&
			math.Float64bits(x.Pi) == math.Float64bits(y.Pi)
	})
}

// TestRefreshMatchesReplaceFrom: for every policy and 20 seeds, a
// hierarchy fed batches of one row, batches straddling the refresh
// points, batches cut exactly on them and explicit refreshes holds on
// every layer, after every batch, exactly the samples (weights compared
// bit for bit), versions and offer counts that refreshing through
// ReplaceFrom gives.
func TestRefreshMatchesReplaceFrom(t *testing.T) {
	const rows, every = 2600, 256
	base := buildBase(t, rows, 41)
	logger := focusedLogger(t)
	configs := map[string]Config{
		"uniform":  {Policy: Uniform},
		"lastseen": {Policy: LastSeen, K: 100, D: 1000},
		"biased":   {Policy: Biased, Logger: logger, Attrs: []string{"ra", "dec"}},
	}
	for name, cfg := range configs {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/%d", name, seed), func(t *testing.T) {
				stack := func() []*Impression {
					var out []*Impression
					for i, size := range []int{600, 60, 6} {
						c := cfg
						c.Name, c.Size, c.Seed = fmt.Sprintf("L%d", i), size, seed*31+uint64(i)
						im, err := New(base, c)
						if err != nil {
							t.Fatal(err)
						}
						out = append(out, im)
					}
					return out
				}
				h, err := NewHierarchy(stack(), every)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refHierarchy{layers: stack(), every: every}
				rng := xrand.New(seed)
				since := int32(0)
				for lo := int32(0); lo < rows; {
					due := every - since
					var n int32
					switch rng.Intn(6) {
					case 0:
						n = 1
					case 1:
						n = due // ends exactly on a refresh point
					case 2:
						n = due + 1 + int32(rng.Intn(3*every)) // straddles one or more
					case 3:
						n = max(due-1, 1)
					default:
						n = 1 + int32(rng.Intn(every/2))
					}
					if lo == 0 && seed%2 == 0 {
						n = 1 + int32(rng.Intn(every-1)) // a first load short of a refresh point
					}
					hi := min(lo+n, rows)
					h.OfferRange(lo, hi)
					ref.offerRange(t, lo, hi)
					since = (since + hi - lo) % every
					if rng.Intn(10) == 0 {
						h.Refresh()
						ref.since = 0
						ref.refresh(t)
						since = 0
					}
					for i, got := range h.Layers() {
						want := ref.layers[i]
						if got.Version() != want.Version() || got.Offered() != want.Offered() {
							t.Fatalf("L%d after %d rows: version/offered %d/%d, reference %d/%d",
								i, hi, got.Version(), got.Offered(), want.Version(), want.Offered())
						}
						if gs, ws := got.Samples(), want.Samples(); !sameBits(gs, ws) {
							t.Fatalf("L%d after %d rows: %d samples differ from the reference's %d", i, hi, len(gs), len(ws))
						}
					}
					lo = hi
				}
			})
		}
	}
}

// refView is the reference view rebuild: the samples sorted by position
// with sort.Slice.
func refView(im *Impression) View {
	samples := im.Samples()
	sort.Slice(samples, func(a, b int) bool { return samples[a].Pos < samples[b].Pos })
	pos := make(vec.Sel, len(samples))
	uniform := true
	for i, s := range samples {
		pos[i] = s.Pos
		if s.Weight != 1 || s.Pi != 1 {
			uniform = false
		}
	}
	v := View{Positions: pos}
	if !uniform {
		v.Weights = make([]float64, len(samples))
		v.Pis = make([]float64, len(samples))
		for i, s := range samples {
			v.Weights[i], v.Pis[i] = s.Weight, s.Pi
		}
		ss := stats.SumInvWeights(v.Pis)
		v.ShareSums = &ss
	}
	return v
}

func sameFloatBits(a, b []float64) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestViewRebuildMatchesSortSlice: the rebuilt view of stream, biased
// and derived layers of one to 5 000 samples, with positions spanning
// one to three radix digits, equals the view a sort.Slice of the
// samples by position gives.
func TestViewRebuildMatchesSortSlice(t *testing.T) {
	base := buildBase(t, 30000, 43)
	logger := focusedLogger(t)
	check := func(t *testing.T, im *Impression) {
		t.Helper()
		want := im.Samples()
		im.mu.Lock()
		im.rebuildViewLocked()
		got := im.view
		im.mu.Unlock()
		ref := refView(im)
		if !slices.Equal(got.Positions, ref.Positions) {
			t.Fatalf("%s: positions differ from the sort.Slice reference", im.Name())
		}
		if !sameFloatBits(got.Weights, ref.Weights) || !sameFloatBits(got.Pis, ref.Pis) {
			t.Fatalf("%s: weights differ from the sort.Slice reference", im.Name())
		}
		if (got.ShareSums == nil) != (ref.ShareSums == nil) || got.ShareSums != nil && *got.ShareSums != *ref.ShareSums {
			t.Fatalf("%s: share sums %v, reference %v", im.Name(), got.ShareSums, ref.ShareSums)
		}
		if len(want) != len(got.Positions) {
			t.Fatalf("%s: %d positions for %d samples", im.Name(), len(got.Positions), len(want))
		}
	}
	for _, cfg := range []Config{
		{Policy: Uniform},
		{Policy: LastSeen, K: 500, D: 1000},
		{Policy: Biased, Logger: logger, Attrs: []string{"ra"}},
	} {
		for _, size := range []int{1, 100, 5000} {
			cfg.Name, cfg.Size, cfg.Seed = fmt.Sprintf("%s-%d", cfg.Policy, size), size, uint64(size)
			l0, err := New(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Name, cfg.Size = cfg.Name+"-child", max(size/3, 1)
			if cfg.Size == size {
				l0.OfferRange(0, int32(base.Len()))
				check(t, l0)
				continue
			}
			l1, err := New(base, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := NewHierarchy([]*Impression{l0, l1}, 1000)
			if err != nil {
				t.Fatal(err)
			}
			h.OfferRange(0, int32(base.Len()))
			check(t, l0)
			check(t, l1)
		}
	}
	// Sparse positions: the radix sort needs one, two and three passes.
	for _, stride := range []int32{1, 300, 200_000} {
		im, err := New(base, Config{Name: fmt.Sprintf("stride-%d", stride), Size: 3000, Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 9000; i++ {
			im.Offer(i*stride + i%stride)
		}
		check(t, im)
	}
}

// TestRefreshZeroAlloc: once a layer has been refreshed, refreshing it
// again reuses its slot scratch and sample array, so a steady-state
// refresh of a biased hierarchy allocates nothing.
func TestRefreshZeroAlloc(t *testing.T) {
	base := buildBase(t, 20000, 53)
	logger := focusedLogger(t)
	var layers []*Impression
	for i, size := range []int{2000, 200, 20} {
		im, err := New(base, Config{Name: fmt.Sprintf("L%d", i), Size: size, Seed: uint64(i),
			Policy: Biased, Logger: logger, Attrs: []string{"ra", "dec"}})
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, im)
	}
	h, err := NewHierarchy(layers, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h.OfferRange(0, int32(base.Len()))
	if allocs := testing.AllocsPerRun(20, h.Refresh); allocs != 0 {
		t.Fatalf("steady-state refresh: %v allocs, want 0", allocs)
	}
}

// TestOfferAfterRefreshResumesStream: a direct Offer to a refreshed
// layer resumes its stream sampler, whose uniform samples carry weight
// and Pi 1 — none of the thinning of the refresh it left.
func TestOfferAfterRefreshResumesStream(t *testing.T) {
	base := buildBase(t, 3000, 59)
	l0, _ := New(base, Config{Name: "l0", Size: 1000, Seed: 1})
	l1, _ := New(base, Config{Name: "l1", Size: 100, Seed: 2})
	h, err := NewHierarchy([]*Impression{l0, l1}, 500)
	if err != nil {
		t.Fatal(err)
	}
	h.OfferRange(0, 2000)
	l1.Offer(2000)
	for _, s := range l1.Samples() {
		if s.Weight != 1 || s.Pi != 1 {
			t.Fatalf("resumed stream sample %d has weight %g, pi %g; want 1, 1", s.Pos, s.Weight, s.Pi)
		}
	}
	if v := l1.View(); v.Weights != nil || v.Pis != nil {
		t.Fatal("resumed uniform stream layer has a weighted view")
	}
}
