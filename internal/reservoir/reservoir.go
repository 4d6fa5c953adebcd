// Package reservoir implements the sampling algorithms of SciBORQ §3.3–§4:
//
//   - R: the classical reservoir algorithm (paper Figure 2, Vitter [24]).
//   - LastSeen: the recency-biased reservoir of Figure 3 — acceptance with
//     fixed probability k/D so recently loaded tuples dominate.
//   - Biased: the workload-biased reservoir of Figure 6 — acceptance
//     probability f̆(t)·N·n/cnt steered by the binned KDE over the
//     workload's predicate set.
//
// LastSeen and Biased draw the victim slot independently of the
// acceptance draw: Figures 3 and 6 reuse one draw for both, which
// conditions the slot on acceptance and confines eviction to the slots
// below n times the acceptance probability, so the high slots would
// never turn over.
package reservoir

import (
	"fmt"
	"math"
	"slices"

	"sciborq/internal/xrand"
)

// Hook observes sample mutations: added is the item that just entered
// the sample; evicted points at the item it displaced, and is nil
// during the fill phase. Hooks run synchronously inside Offer — they
// are how impressions maintain their sorted position views
// incrementally instead of rebuilding them per query. Offers that
// leave the sample unchanged trigger no hook.
type Hook[T any] func(added T, evicted *T)

// R is the classical reservoir sampler of Figure 2: after cnt offers,
// every offered item is in the sample with probability n/cnt.
type R[T any] struct {
	cap   int
	cnt   int64
	items []T
	rng   *xrand.RNG
	hook  Hook[T]
}

// NewR returns a reservoir of capacity n seeded by rng.
func NewR[T any](n int, rng *xrand.RNG) (*R[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("reservoir: capacity must be positive, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("reservoir: nil rng")
	}
	return &R[T]{cap: n, items: make([]T, 0, n), rng: rng}, nil
}

// SetHook installs the mutation observer (nil to remove).
func (r *R[T]) SetHook(h Hook[T]) { r.hook = h }

// Offer presents one item to the reservoir.
func (r *R[T]) Offer(item T) {
	r.cnt++
	if len(r.items) < r.cap {
		r.items = append(r.items, item)
		if r.hook != nil {
			r.hook(item, nil)
		}
		return
	}
	// Accept with probability n/cnt; the accepted item replaces a
	// uniformly random victim. Using one draw for both is correct here
	// (this is exactly Figure 2: rnd := floor(cnt*random()); accept and
	// place at rnd when rnd < n — the slot is uniform given acceptance).
	if j := r.rng.Uint64n(uint64(r.cnt)); j < uint64(r.cap) {
		victim := r.items[j]
		r.items[j] = item
		if r.hook != nil {
			r.hook(item, &victim)
		}
	}
}

// Items returns the current sample (live storage; do not mutate).
func (r *R[T]) Items() []T { return r.items }

// Count returns the number of items offered so far.
func (r *R[T]) Count() int64 { return r.cnt }

// Cap returns the reservoir capacity n.
func (r *R[T]) Cap() int { return r.cap }

// Slots draws which of the items 0..n-1 a reservoir of capacity k keeps:
// Algorithm R over the indices themselves. It makes exactly the draws an
// R of capacity k offered n items makes, and the result (length
// min(k, n)) holds in slot j the index of the item R's slot j would
// hold. dst's storage is reused when it has room for k+1 indices.
func Slots(dst []int32, k, n int, rng *xrand.RNG) []int32 {
	k = max(min(k, n), 0)
	dst = slices.Grow(dst[:0], k+1)[:k+1]
	for i := range k {
		dst[i] = int32(i)
	}
	// Slot k is a sentinel that takes every rejected offer, so placing
	// one needs no branch: a branch on acceptance mispredicts about as
	// often as offers are accepted.
	for i := k; i < n; i++ {
		dst[min(rng.Uint64n(uint64(i+1)), uint64(k))] = int32(i)
	}
	return dst[:k]
}

// LastSeen is the recency-focused impression builder of Figure 3. Once
// the reservoir is full, each arriving tuple is accepted with the fixed
// probability k/D — where D is tuned to the expected daily ingest and
// k <= n sets the desired fraction of fresh tuples — so old tuples decay
// geometrically.
type LastSeen[T any] struct {
	cap   int
	k, d  float64
	cnt   int64
	items []T
	rng   *xrand.RNG
	hook  Hook[T]
}

// NewLastSeen builds a Last Seen reservoir of capacity n with acceptance
// probability k/D.
func NewLastSeen[T any](n int, k, d float64, rng *xrand.RNG) (*LastSeen[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("reservoir: capacity must be positive, got %d", n)
	}
	if !(d > 0) || k < 0 || k > d {
		return nil, fmt.Errorf("reservoir: need 0 <= k <= D and D > 0, got k=%g D=%g", k, d)
	}
	if rng == nil {
		return nil, fmt.Errorf("reservoir: nil rng")
	}
	return &LastSeen[T]{cap: n, k: k, d: d, items: make([]T, 0, n), rng: rng}, nil
}

// SetHook installs the mutation observer (nil to remove).
func (l *LastSeen[T]) SetHook(h Hook[T]) { l.hook = h }

// Offer presents one item.
func (l *LastSeen[T]) Offer(item T) {
	l.cnt++
	if len(l.items) < l.cap {
		l.items = append(l.items, item)
		if l.hook != nil {
			l.hook(item, nil)
		}
		return
	}
	if l.d*l.rng.Float64() >= l.k {
		return
	}
	slot := l.rng.Intn(l.cap)
	victim := l.items[slot]
	l.items[slot] = item
	if l.hook != nil {
		l.hook(item, &victim)
	}
}

// Items returns the current sample (live storage; do not mutate).
func (l *LastSeen[T]) Items() []T { return l.items }

// Count returns the number of items offered so far.
func (l *LastSeen[T]) Count() int64 { return l.cnt }

// Cap returns the capacity.
func (l *LastSeen[T]) Cap() int { return l.cap }

// AcceptProb returns the fixed acceptance probability k/D.
func (l *LastSeen[T]) AcceptProb() float64 { return l.k / l.d }

// Weighted holds one sampled item together with the bias weight in force
// when it was accepted and an estimate of its inclusion probability.
type Weighted[T any] struct {
	Item T
	// Weight is the bias factor f̆(t)·N used in the acceptance test: the
	// expected number of workload predicate values near the tuple.
	Weight float64
	// Pi estimates the probability that this tuple is in the final
	// sample: its acceptance probability at offer time multiplied by its
	// survival probability through the evictions that followed,
	// (1 − 1/n)^(K − k). Estimators invert Pi (Horvitz–Thompson style);
	// it accounts for the fill phase (acceptance 1) and for acceptance-
	// probability clamping, which the raw bias factor cannot.
	Pi float64
	// Seq is the 1-based offer sequence number (arrival order).
	Seq int64
}

// Biased is the workload-biased reservoir of Figure 6. The acceptance
// probability for tuple t at offer cnt is
//
//	P(accept t) = f̆(t) · N · n / cnt
//
// (clamped to 1), where f̆ is the binned KDE over the predicate set, N is
// the number of logged predicate values, and n the impression size.
type Biased[T any] struct {
	cap     int
	cnt     int64
	accepts int64 // replacement acceptances (evictions) so far, K
	// logSurvive is log(1 − 1/n), the log-probability that an item
	// survives one eviction.
	logSurvive float64
	// items holds the sampled items and meta their acceptance records,
	// slot for slot, so a pass over the items alone (the sort keys of a
	// view) does not read the records.
	items  []T
	meta   []biasedMeta
	rng    *xrand.RNG
	weight func(T) float64 // returns f̆(t)·N, the bias factor
	hook   Hook[T]
}

// biasedMeta records the acceptance metadata needed to reconstruct an
// item's inclusion probability.
type biasedMeta struct {
	weight  float64 // bias factor at offer time
	pAccept float64 // acceptance probability used (1 in the fill phase)
	kAt     int64   // eviction counter right after this item entered
	seq     int64
}

// NewBiased builds a biased reservoir of capacity n. weight must return
// the bias factor f̆(t)·N for a tuple (>= 0).
func NewBiased[T any](n int, weight func(T) float64, rng *xrand.RNG) (*Biased[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("reservoir: capacity must be positive, got %d", n)
	}
	if weight == nil {
		return nil, fmt.Errorf("reservoir: nil weight function")
	}
	if rng == nil {
		return nil, fmt.Errorf("reservoir: nil rng")
	}
	return &Biased[T]{cap: n, logSurvive: math.Log1p(-1 / float64(n)),
		items: make([]T, 0, n), meta: make([]biasedMeta, 0, n), rng: rng, weight: weight}, nil
}

// Offer presents one item.
func (b *Biased[T]) Offer(item T) {
	b.cnt++
	w := b.weight(item)
	if w < 0 || math.IsNaN(w) {
		w = 0
	}
	if len(b.items) < b.cap {
		b.items = append(b.items, item)
		b.meta = append(b.meta, biasedMeta{weight: w, pAccept: 1, kAt: b.accepts, seq: b.cnt})
		if b.hook != nil {
			b.hook(item, nil)
		}
		return
	}
	// Figure 6: accept iff cnt·rnd < n·N·f̆(t), i.e. rnd < n·w/cnt.
	if float64(b.cnt)*b.rng.Float64() >= float64(b.cap)*w {
		return
	}
	slot := b.rng.Intn(b.cap)
	b.accepts++
	p := float64(b.cap) * w / float64(b.cnt)
	if p > 1 {
		p = 1
	}
	victim := b.items[slot]
	b.items[slot] = item
	b.meta[slot] = biasedMeta{weight: w, pAccept: p, kAt: b.accepts, seq: b.cnt}
	if b.hook != nil {
		b.hook(item, &victim)
	}
}

// SetHook installs the mutation observer (nil to remove).
func (b *Biased[T]) SetHook(h Hook[T]) { b.hook = h }

// Items returns the current weighted sample, slot by slot.
func (b *Biased[T]) Items() []Weighted[T] {
	out := make([]Weighted[T], len(b.items))
	for i, m := range b.meta {
		out[i] = Weighted[T]{Item: b.items[i], Weight: m.weight, Pi: b.inclusion(&m).Pi(), Seq: m.seq}
	}
	return out
}

// Len returns the number of items in the sample.
func (b *Biased[T]) Len() int { return len(b.items) }

// Item returns the item in slot i.
func (b *Biased[T]) Item(i int) T { return b.items[i] }

// Slot returns the item in slot i, its bias weight and its inclusion
// probability in factored form; Items reports Pi = inc.Pi().
func (b *Biased[T]) Slot(i int) (item T, weight float64, inc Inclusion) {
	m := &b.meta[i]
	return b.items[i], m.weight, b.inclusion(m)
}

func (b *Biased[T]) inclusion(m *biasedMeta) Inclusion {
	return Inclusion{PAccept: m.pAccept, Evictions: b.accepts - m.kAt, LogSurvive: b.logSurvive}
}

// Inclusion is a sampled item's inclusion probability in factored form:
// the probability it was accepted, times the probability it survived
// each of the evictions that followed, exp(LogSurvive) apiece.
type Inclusion struct {
	PAccept    float64
	Evictions  int64
	LogSurvive float64
}

// Pi returns PAccept · exp(Evictions · LogSurvive); for a biased
// reservoir of capacity n, LogSurvive is log(1 − 1/n).
func (in Inclusion) Pi() float64 {
	return in.PAccept * math.Exp(float64(in.Evictions)*in.LogSurvive)
}

// Count returns the number of items offered so far.
func (b *Biased[T]) Count() int64 { return b.cnt }

// Cap returns the capacity.
func (b *Biased[T]) Cap() int { return b.cap }

// AcceptProb returns the clamped acceptance probability the sampler
// would use for bias factor w at the current count.
func (b *Biased[T]) AcceptProb(w float64) float64 {
	if b.cnt < int64(b.cap) {
		return 1
	}
	p := float64(b.cap) * w / float64(b.cnt)
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}
