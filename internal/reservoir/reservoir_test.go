package reservoir

import (
	"math"
	"slices"
	"testing"

	"sciborq/internal/xrand"
)

func TestNewRValidation(t *testing.T) {
	if _, err := NewR[int](0, xrand.New(1)); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewR[int](5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRFillPhase(t *testing.T) {
	r, _ := NewR[int](5, xrand.New(1))
	for i := 0; i < 3; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 3 || r.Count() != 3 {
		t.Fatalf("fill phase: %d items, count %d", len(r.Items()), r.Count())
	}
	for i := 3; i < 100; i++ {
		r.Offer(i)
	}
	if len(r.Items()) != 5 || r.Cap() != 5 {
		t.Fatalf("reservoir size %d after overflow", len(r.Items()))
	}
}

// inclusionRates offers stream [0, streamN) `trials` times and returns
// per-item inclusion frequencies.
func inclusionRates(t *testing.T, makeSampler func(seed uint64) interface {
	Offer(int)
	Items() []int
}, streamN, trials int) []float64 {
	t.Helper()
	counts := make([]float64, streamN)
	for tr := 0; tr < trials; tr++ {
		s := makeSampler(uint64(tr) + 1)
		for i := 0; i < streamN; i++ {
			s.Offer(i)
		}
		for _, v := range s.Items() {
			counts[v]++
		}
	}
	for i := range counts {
		counts[i] /= float64(trials)
	}
	return counts
}

func TestRUniformInclusion(t *testing.T) {
	// Property of Figure 2: every stream position is included with
	// probability n/cnt.
	const n, streamN, trials = 20, 200, 3000
	rates := inclusionRates(t, func(seed uint64) interface {
		Offer(int)
		Items() []int
	} {
		r, _ := NewR[int](n, xrand.New(seed))
		return r
	}, streamN, trials)
	want := float64(n) / float64(streamN)
	for i, got := range rates {
		if math.Abs(got-want) > 0.025 {
			t.Fatalf("position %d inclusion %v, want %v", i, got, want)
		}
	}
}

func TestNewLastSeenValidation(t *testing.T) {
	r := xrand.New(1)
	if _, err := NewLastSeen[int](0, 1, 10, r); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewLastSeen[int](5, -1, 10, r); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := NewLastSeen[int](5, 11, 10, r); err == nil {
		t.Fatal("k > D accepted")
	}
	if _, err := NewLastSeen[int](5, 1, 0, r); err == nil {
		t.Fatal("D=0 accepted")
	}
	if _, err := NewLastSeen[int](5, 1, 10, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestLastSeenRecencyBias(t *testing.T) {
	// With acceptance probability k/D, recent arrivals must be far more
	// frequent in the sample than old ones: the expected survival of an
	// item accepted at time s decays as (1 - (k/D)/n)^(arrivals after s).
	const n, streamN, trials = 50, 5000, 200
	oldCount, newCount := 0, 0
	for tr := 0; tr < trials; tr++ {
		ls, err := NewLastSeen[int](n, 500, 1000, xrand.New(uint64(tr)+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streamN; i++ {
			ls.Offer(i)
		}
		for _, v := range ls.Items() {
			if v < streamN/2 {
				oldCount++
			} else {
				newCount++
			}
		}
	}
	if newCount < 10*oldCount {
		t.Fatalf("recency bias too weak: old=%d new=%d", oldCount, newCount)
	}
}

func TestLastSeenAcceptProb(t *testing.T) {
	ls, _ := NewLastSeen[int](10, 250, 1000, xrand.New(1))
	if got := ls.AcceptProb(); got != 0.25 {
		t.Fatalf("AcceptProb = %v", got)
	}
}

func TestNewBiasedValidation(t *testing.T) {
	w := func(int) float64 { return 1 }
	if _, err := NewBiased[int](0, w, xrand.New(1)); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if _, err := NewBiased[int](5, nil, xrand.New(1)); err == nil {
		t.Fatal("nil weight accepted")
	}
	if _, err := NewBiased[int](5, w, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestBiasedFavoursHeavyItems(t *testing.T) {
	// Items in the "focal" half get bias weight 9x the rest; they must
	// be oversampled by roughly that odds ratio.
	const n, streamN, trials = 100, 10000, 60
	heavy, light := 0, 0
	weight := func(v int) float64 {
		if v%2 == 0 {
			return 9
		}
		return 1
	}
	for tr := 0; tr < trials; tr++ {
		b, err := NewBiased[int](n, weight, xrand.New(uint64(tr)+1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < streamN; i++ {
			b.Offer(i)
		}
		for _, it := range b.Items() {
			if it.Item%2 == 0 {
				heavy++
			} else {
				light++
			}
		}
	}
	ratio := float64(heavy) / float64(light)
	if ratio < 3 {
		t.Fatalf("bias ratio %v too weak (heavy=%d light=%d)", ratio, heavy, light)
	}
}

func TestBiasedZeroWeightNeverAccepted(t *testing.T) {
	// After the fill phase, zero-weight items must never enter.
	weight := func(v int) float64 {
		if v < 10 {
			return 1
		}
		return 0
	}
	b, _ := NewBiased[int](10, weight, xrand.New(5))
	for i := 0; i < 10000; i++ {
		b.Offer(i)
	}
	for _, it := range b.Items() {
		if it.Item >= 10 {
			t.Fatalf("zero-weight item %d entered the sample", it.Item)
		}
	}
}

func TestBiasedNegativeAndNaNWeightsClamped(t *testing.T) {
	weight := func(v int) float64 {
		switch v % 3 {
		case 0:
			return -5
		case 1:
			return math.NaN()
		}
		return 1
	}
	b, _ := NewBiased[int](5, weight, xrand.New(5))
	for i := 0; i < 1000; i++ {
		b.Offer(i)
	}
	for _, it := range b.Items() {
		if it.Weight < 0 || math.IsNaN(it.Weight) {
			t.Fatalf("unclamped weight %v", it.Weight)
		}
	}
}

func TestBiasedRecordsSeqAndWeight(t *testing.T) {
	b, _ := NewBiased[int](3, func(int) float64 { return 2 }, xrand.New(1))
	b.Offer(7)
	items := b.Items()
	if items[0].Item != 7 || items[0].Weight != 2 || items[0].Seq != 1 {
		t.Fatalf("recorded %+v", items[0])
	}
}

func TestBiasedAcceptProb(t *testing.T) {
	b, _ := NewBiased[int](10, func(int) float64 { return 1 }, xrand.New(1))
	if b.AcceptProb(0.5) != 1 {
		t.Fatal("fill phase should accept with probability 1")
	}
	for i := 0; i < 100; i++ {
		b.Offer(i)
	}
	// p = n*w/cnt = 10*0.5/100.
	if got := b.AcceptProb(0.5); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("AcceptProb = %v", got)
	}
	if b.AcceptProb(1000) != 1 {
		t.Fatal("probability must clamp to 1")
	}
	if b.AcceptProb(-1) != 0 {
		t.Fatal("negative weight must clamp to 0")
	}
}

func TestBiasedUniformWeightMatchesR(t *testing.T) {
	// With a constant bias factor w = cnt/... the Figure-6 rule with
	// w=1 gives acceptance n/cnt — identical to Algorithm R. Inclusion
	// probabilities must then be uniform.
	const n, streamN, trials = 20, 200, 3000
	counts := make([]float64, streamN)
	for tr := 0; tr < trials; tr++ {
		b, _ := NewBiased[int](n, func(int) float64 { return 1 }, xrand.New(uint64(tr)+1))
		for i := 0; i < streamN; i++ {
			b.Offer(i)
		}
		for _, it := range b.Items() {
			counts[it.Item]++
		}
	}
	want := float64(n) / float64(streamN)
	for i := range counts {
		got := counts[i] / trials
		if math.Abs(got-want) > 0.025 {
			t.Fatalf("position %d inclusion %v, want %v", i, got, want)
		}
	}
}

// TestSlotsMatchesR: Slots keeps, slot for slot, the indices an R of the
// same capacity offered the items 0..n-1 keeps, and leaves the generator
// where R leaves it — below, at and far above the capacity.
func TestSlotsMatchesR(t *testing.T) {
	var dst []int32
	for _, k := range []int{1, 2, 7, 100, 1000} {
		for _, n := range []int{0, 1, k - 1, k, k + 1, 3 * k, 5000} {
			for seed := uint64(1); seed <= 5; seed++ {
				rngR, rngS := xrand.New(seed), xrand.New(seed)
				r, err := NewR[int32](k, rngR)
				if err != nil {
					t.Fatal(err)
				}
				for i := range n {
					r.Offer(int32(i))
				}
				dst = Slots(dst, k, n, rngS)
				if !slices.Equal(dst, r.Items()) {
					t.Fatalf("k=%d n=%d seed=%d: Slots %v, R %v", k, n, seed, dst, r.Items())
				}
				if rngR.Uint64() != rngS.Uint64() {
					t.Fatalf("k=%d n=%d seed=%d: generators diverge after the draws", k, n, seed)
				}
			}
		}
	}
}
