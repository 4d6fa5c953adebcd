// Package impression implements the paper's primary contribution:
// impressions — large, workload-biased, incrementally maintained samples
// of a science warehouse, organised in multi-layer hierarchies (§3).
//
// An impression samples row positions of an append-only base table while
// the data is loaded (the construction "resides in the load process",
// §3.3). It never revisits base data: positions are stable because
// tables are append-only. Three focus policies are provided:
//
//   - Uniform: the classical reservoir of Figure 2.
//   - LastSeen: the recency-focused reservoir of Figure 3.
//   - Biased: the workload-steered reservoir of Figure 6, whose bias
//     factor is the binned KDE f̆ (package kde) over the predicate-set
//     histograms maintained by the workload logger.
//
// Hierarchies (see hierarchy.go) stack impressions of decreasing size;
// each smaller layer is refreshed exclusively from the layer below it,
// by drawing which of the parent's sample slots it keeps and building
// only those samples.
package impression

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"sciborq/internal/kde"
	"sciborq/internal/reservoir"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// Policy selects the sampling focus of an impression.
type Policy int

// Focus policies.
const (
	Uniform Policy = iota
	LastSeen
	Biased
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case LastSeen:
		return "last-seen"
	case Biased:
		return "biased"
	}
	return "unknown"
}

// Config configures one impression.
type Config struct {
	Name   string
	Size   int
	Policy Policy
	Seed   uint64

	// Biased policy: Logger supplies the predicate-set histograms and
	// Attrs names the interesting attributes (must be DOUBLE columns of
	// the base table). The bias factor of a tuple is the product of
	// f̆_a(t.a)·N_a over the attributes — the paper's combine function
	// c(t) = f̆(t.att1) ◦ ... ◦ f̆(t.attm).
	Logger *workload.Logger
	Attrs  []string

	// LastSeen policy: acceptance probability K/D (Figure 3); D is
	// tuned to the expected daily ingest.
	K, D float64
}

// uniformMix λ adds a defensive uniform component to the bias factor:
// w = (1−λ)·Π f̆_a·N_a + λ, guaranteeing every tuple at least λ times
// the uniform sampling rate so that estimates over anti-focal regions
// keep finite variance (defensive importance sampling). 0.10 is the
// smallest mix at which anti-focal estimates keep nominal interval
// coverage in the acceptance tests.
const uniformMix = 0.10

// Sample is one sampled row with its two estimation weights (both 1 for
// uniform policies):
//
//   - Weight is the clamp-corrected bias factor, smooth within a region;
//     ratio estimators (AVG) use it because their variance depends on
//     weight dispersion and they are robust to weight misspecification.
//   - Pi is the estimated inclusion probability (acceptance × survival);
//     share estimators (COUNT, SUM) need it because the clamped
//     reservoir's composition is a nonlinear function of the bias
//     factor that only the inclusion model captures.
type Sample struct {
	Pos    int32
	Weight float64
	Pi     float64
}

// Impression is a single-layer sample over a base table.
type Impression struct {
	mu   sync.Mutex
	cfg  Config
	base *table.Table
	rng  *xrand.RNG

	uni  *reservoir.R[int32]
	last *reservoir.LastSeen[int32]
	bias *reservoir.Biased[int32]

	// derived holds the sample set of a layer refreshed from its parent
	// (hierarchy maintenance); when non-nil it shadows the stream
	// samplers. A direct Offer clears it and resumes stream sampling.
	// Each sample's Pi is kept factored: its layer-0 inclusion, then
	// the thinning rates of the refreshes it came through, thins[0]
	// first, multiplied in that order when the sample is read.
	// Refreshes reuse derived, thins and slots (the parent slots the
	// last refresh drew): no reader holds them (samplesLocked copies).
	derived []factored
	thins   []float64
	slots   []int32

	// version identifies the sample-set state: it bumps on every Offer
	// and refresh, so any cache keyed by (impression, version) is never
	// stale.
	version uint64

	// view is the last built selection view (immutable once returned);
	// viewOK marks it current. The delta logs record reservoir
	// insertions/evictions since the view was built, so uniform-weight
	// stream samplers refresh it with one merge pass instead of a full
	// sort. viewFull forces the next refresh to rebuild from scratch
	// (weight-bearing policies, derived layers, overflowed logs).
	view     View
	viewOK   bool
	viewFull bool
	deltaAdd []int32
	deltaDel []int32

	offered int64
}

// New builds an impression over base.
func New(base *table.Table, cfg Config) (*Impression, error) {
	if base == nil {
		return nil, fmt.Errorf("impression: nil base table")
	}
	if cfg.Size <= 0 {
		return nil, fmt.Errorf("impression %q: size must be positive, got %d", cfg.Name, cfg.Size)
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("impression(%s,%s,%d)", base.Name(), cfg.Policy, cfg.Size)
	}
	im := &Impression{cfg: cfg, base: base, rng: xrand.New(cfg.Seed ^ 0x5c1b09c9)}
	var err error
	switch cfg.Policy {
	case Uniform:
		im.uni, err = reservoir.NewR[int32](cfg.Size, im.rng)
	case LastSeen:
		im.last, err = reservoir.NewLastSeen[int32](cfg.Size, cfg.K, cfg.D, im.rng)
	case Biased:
		if cfg.Logger == nil || len(cfg.Attrs) == 0 {
			return nil, fmt.Errorf("impression %q: biased policy needs a workload logger and attributes", cfg.Name)
		}
		// Validate the attributes now; per-offer lookups then cannot fail.
		for _, a := range cfg.Attrs {
			if _, err := cfg.Logger.Live(a); err != nil {
				return nil, fmt.Errorf("impression %q: %w", cfg.Name, err)
			}
			if _, err := base.Float64(a); err != nil {
				return nil, fmt.Errorf("impression %q: %w", cfg.Name, err)
			}
		}
		im.bias, err = reservoir.NewBiased[int32](cfg.Size, im.biasFactor, im.rng)
	default:
		return nil, fmt.Errorf("impression %q: unknown policy %d", cfg.Name, cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	// Stream mutations feed the incremental view maintenance: the
	// uniform-weight samplers log position deltas; the biased sampler's
	// weights move with every offer (clamp cap, survival decay), so its
	// view always rebuilds and needs no log.
	hook := func(added int32, evicted *int32) { im.noteDelta(added, evicted) }
	switch cfg.Policy {
	case Uniform:
		im.uni.SetHook(hook)
	case LastSeen:
		im.last.SetHook(hook)
	}
	return im, nil
}

// biasFactor computes the Figure-6 acceptance weight for the base row at
// pos. Per attribute the factor is f̆_a(t.a)·N_a — the expected number of
// predicate values near the tuple. Multiple attributes are combined by
// geometric mean (the paper's combine function c(t) = f̆(att1)◦…◦f̆(attm)
// leaves ◦ open; the geometric mean keeps the combined factor on the
// same scale as a single attribute's, so the acceptance probability
// n·w/cnt stays meaningfully below 1 instead of clamping). The result is
// defensively mixed with a uniform floor (see uniformMix).
func (im *Impression) biasFactor(pos int32) float64 {
	logW := 0.0
	for _, attr := range im.cfg.Attrs {
		data, err := im.base.Float64(attr)
		if err != nil || int(pos) >= len(data) {
			return 0
		}
		h, err := im.cfg.Logger.Live(attr)
		if err != nil {
			return 0
		}
		b, err := kde.NewBinned(h, nil)
		if err != nil {
			return 0
		}
		// f̆(v)·N: expected number of predicate values near v.
		f := b.Eval(data[pos]) * float64(h.N)
		if f <= 0 {
			logW = math.Inf(-1)
			break
		}
		logW += math.Log(f)
	}
	w := 0.0
	if !math.IsInf(logW, -1) && len(im.cfg.Attrs) > 0 {
		w = math.Exp(logW / float64(len(im.cfg.Attrs)))
	}
	return (1-uniformMix)*w + uniformMix
}

// Name returns the impression name.
func (im *Impression) Name() string { return im.cfg.Name }

// Policy returns the focus policy.
func (im *Impression) Policy() Policy { return im.cfg.Policy }

// Cap returns the configured sample size n.
func (im *Impression) Cap() int { return im.cfg.Size }

// Base returns the base table.
func (im *Impression) Base() *table.Table { return im.base }

// Offered returns the number of base rows offered so far.
func (im *Impression) Offered() int64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.offered
}

// Offer presents the base row at position pos to the impression.
func (im *Impression) Offer(pos int32) { im.OfferRange(pos, pos+1) }

// OfferRange presents the base rows [lo, hi) to the impression in
// order, under one hold of the impression's lock; the loader calls it
// for every appended batch (construction during load, §3.3). The
// samples and versions are those of one Offer per row, but no query
// can take a view between two rows of the batch — which for a
// weight-bearing layer would rebuild the whole view once per
// interleaving.
func (im *Impression) OfferRange(lo, hi int32) {
	im.mu.Lock()
	defer im.mu.Unlock()
	for pos := lo; pos < hi; pos++ {
		im.offerLocked(pos)
	}
}

// offerLocked offers one row; im.mu is held.
func (im *Impression) offerLocked(pos int32) {
	im.offered++
	im.version++
	im.viewOK = false
	if im.derived != nil {
		// Direct offers resume stream sampling; the stream reservoir
		// diverged from the derived view, so deltas cannot bridge it.
		im.derived, im.thins = nil, nil
		im.markViewFullLocked()
	}
	switch im.cfg.Policy {
	case Uniform:
		im.uni.Offer(pos)
	case LastSeen:
		im.last.Offer(pos)
	case Biased:
		im.bias.Offer(pos)
		im.markViewFullLocked()
	}
}

// markViewFullLocked forces the next view refresh to rebuild from the
// sample set and drops the now-useless delta logs.
func (im *Impression) markViewFullLocked() {
	im.viewFull = true
	im.deltaAdd = im.deltaAdd[:0]
	im.deltaDel = im.deltaDel[:0]
}

// noteDelta records one reservoir mutation for incremental view
// maintenance. Logging is skipped while no view exists or a full
// rebuild is already pending, and overflows into a full rebuild when
// the log stops being cheaper than re-sorting.
func (im *Impression) noteDelta(added int32, evicted *int32) {
	if im.viewFull || im.view.Positions == nil {
		return
	}
	limit := im.cfg.Size / 4
	if limit < 1024 {
		limit = 1024
	}
	if len(im.deltaAdd) >= limit {
		im.markViewFullLocked()
		return
	}
	im.deltaAdd = append(im.deltaAdd, added)
	if evicted != nil {
		im.deltaDel = append(im.deltaDel, *evicted)
	}
}

// Samples returns the current sample set (positions and weights).
func (im *Impression) Samples() []Sample {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.samplesLocked()
}

func (im *Impression) samplesLocked() []Sample {
	out := make([]Sample, im.lenLocked())
	var slots [256]int32
	var run [256]factored
	for lo := 0; lo < len(out); lo += len(run) {
		m := min(len(run), len(out)-lo)
		for j := range m {
			slots[j] = int32(lo + j)
		}
		im.gatherLocked(run[:m], slots[:m], 1)
		for j, f := range run[:m] {
			out[lo+j] = Sample{Pos: f.Pos, Weight: f.Weight, Pi: im.pi(f)}
		}
	}
	return out
}

// Len returns the current number of sampled rows.
func (im *Impression) Len() int {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.lenLocked()
}

func (im *Impression) lenLocked() int {
	if im.derived != nil {
		return len(im.derived)
	}
	switch im.cfg.Policy {
	case Uniform:
		return len(im.uni.Items())
	case LastSeen:
		return len(im.last.Items())
	}
	return im.bias.Len()
}

// posLocked returns the base-row position sampled in slot i.
func (im *Impression) posLocked(i int) int32 {
	if im.derived != nil {
		return im.derived[i].Pos
	}
	switch im.cfg.Policy {
	case Uniform:
		return im.uni.Items()[i]
	case LastSeen:
		return im.last.Items()[i]
	}
	return im.bias.Item(i)
}

// weightCapLocked returns the clamp on a biased layer's estimation
// weights. The Figure-6 acceptance probability is min(1, n·w/cnt), so
// every tuple with w >= cnt/n is accepted identically — its effective
// weight is cnt/n, not w. Capping at cnt/n makes the weights
// proportional to the steady-state acceptance flux. The lower end is
// bounded by the defensive uniform mix λ, so importance ratios stay
// finite. (The survival-corrected per-tuple Pi in the reservoir is
// exact but its orders-of-magnitude dispersion destroys the Hájek
// estimator's effective sample size.)
func (im *Impression) weightCapLocked() float64 {
	return max(float64(im.offered)/float64(im.cfg.Size), 1)
}

// factored is a sample whose inclusion probability is not multiplied
// out: Pi is inc.Pi() times the layer's thins (see pi).
type factored struct {
	Pos    int32
	Weight float64
	inc    reservoir.Inclusion
}

// pi multiplies out the inclusion probability of one of this layer's
// samples, in the order the refreshes that thinned it ran.
func (im *Impression) pi(f factored) float64 {
	pi := f.inc.Pi()
	for _, t := range im.thins {
		pi *= t
	}
	return pi
}

// View is a stable, versioned selection view of an impression: the
// sampled base-row positions sorted ascending, with row-aligned
// estimation weights. It is what the engine's selection-vector scans
// consume — bounded queries execute directly over the base table
// restricted to Positions, so a changed sample never costs a table
// copy.
//
// The returned slices are immutable: view refreshes build new arrays,
// so a View stays valid (describing the version it was taken at) while the
// impression keeps sampling. Each refresh also starts a value index, a
// grid over one or two columns built on first use and shared by every
// copy of the view: Narrow cuts a scan to the positions a predicate's
// boxes admit.
type View struct {
	// Version identifies the sample-set state the view describes.
	Version uint64
	// Positions are the sampled base-row positions, sorted ascending.
	// Never nil (empty means an empty sample).
	Positions vec.Sel
	// Weights are the row-aligned ratio weights (AVG estimators); nil
	// means uniform (all 1).
	Weights []float64
	// Pis are the row-aligned inclusion weights (COUNT/SUM
	// estimators); nil means uniform.
	Pis []float64
	// ShareSums are the importance-weight sums of Pis
	// (stats.SumInvWeights), computed once per refresh so the share
	// estimators do not walk the whole layer per query. nil when Pis is
	// nil or the view was clamped.
	ShareSums *stats.WeightSums

	// index is the view's lazily built value index (Narrow), shared by
	// every copy of the view.
	index *valueIndex
}

// Clamp returns the view restricted to positions below n — the
// snapshot length of the base table a consumer is about to scan. The
// hierarchy may have sampled rows appended after that snapshot was
// taken; those positions must not reach the scan. Positions are
// sorted, so the cut is a prefix and the weight alignment survives;
// the whole-view ShareSums no longer describe the prefix and are
// dropped. The receiver is unchanged (views are immutable).
func (v View) Clamp(n int) View {
	cut := sort.Search(len(v.Positions), func(i int) bool { return int(v.Positions[i]) >= n })
	if cut == len(v.Positions) {
		return v
	}
	v.Positions = v.Positions[:cut]
	if v.Weights != nil {
		v.Weights = v.Weights[:cut]
	}
	if v.Pis != nil {
		v.Pis = v.Pis[:cut]
	}
	v.ShareSums = nil
	return v
}

// Version returns the current sample-set version. It bumps on every
// Offer and refresh, so consumers can detect staleness without
// taking a view.
func (im *Impression) Version() uint64 {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.version
}

// View returns the current selection view, refreshing it if the sample
// changed since the last call. Uniform-weight stream samplers refresh
// incrementally: the reservoir's insertions/evictions since the last
// view are applied as one merge pass over the previous sorted
// positions (O(n + deltas), allocation limited to the new position
// array) instead of re-sorting. Weight-bearing (biased) and derived
// layers rebuild, since their weights move with every offer and every
// refresh: a radix sort of packed pos<<32 | slot keys orders the slots
// by position, and each slot's weights are gathered in that order, a
// derived layer's Pi multiplied out as it is read.
func (im *Impression) View() View {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.viewLocked()
}

func (im *Impression) viewLocked() View {
	if im.viewOK {
		return im.view
	}
	if im.viewFull || im.view.Positions == nil || im.derived != nil || im.cfg.Policy == Biased {
		im.rebuildViewLocked()
	} else {
		im.applyDeltasLocked()
	}
	im.view.Version = im.version
	im.viewOK = true
	return im.view
}

// rebuildViewLocked builds a fresh view from the full sample set. It
// sorts packed keys pos<<32 | slot, gathers positions from the keys,
// and gathers the weights slot by slot in that order; positions are
// unique, so this is the order of a sort of the samples by position.
func (im *Impression) rebuildViewLocked() {
	n := im.lenLocked()
	keys := make([]uint64, n)
	var maxPos uint32
	for i := range keys {
		p := uint32(im.posLocked(i))
		keys[i] = uint64(p)<<32 | uint64(i)
		maxPos = max(maxPos, p)
	}
	keys = sortByPos(keys, make([]uint64, n), maxPos)
	pos := make(vec.Sel, n)
	for i, k := range keys {
		pos[i] = int32(k >> 32)
	}
	var weights, pis []float64
	var sums *stats.WeightSums
	if im.derived != nil || im.cfg.Policy == Biased {
		weights, pis = make([]float64, n), make([]float64, n)
		uniform := true
		// Gather a run of samples at a time in position order, then
		// multiply out each Pi.
		var slots [256]int32
		var run [256]factored
		for lo := 0; lo < n; lo += len(run) {
			m := min(len(run), n-lo)
			for j := range m {
				slots[j] = int32(uint32(keys[lo+j]))
			}
			im.gatherLocked(run[:m], slots[:m], 1)
			for j, f := range run[:m] {
				pi := im.pi(f)
				weights[lo+j], pis[lo+j] = f.Weight, pi
				if f.Weight != 1 || pi != 1 {
					uniform = false
				}
			}
		}
		if uniform {
			weights, pis = nil, nil
		} else {
			ss := stats.SumInvWeights(pis)
			sums = &ss
		}
	}
	im.view = View{Positions: pos, Weights: weights, Pis: pis, ShareSums: sums,
		index: &valueIndex{base: im.base, positions: pos}}
	im.viewFull = false
	im.deltaAdd = im.deltaAdd[:0]
	im.deltaDel = im.deltaDel[:0]
}

// radixDigit is the width in bits of one sortByPos pass.
const radixDigit = 11

// sortByPos sorts keys packed as pos<<32 | slot, built in ascending slot
// order, by position, where no position exceeds maxPos; buf is scratch
// of keys' length. It returns the sorted keys, in keys or in buf. It is
// a stable least-significant-digit radix sort over the position bits
// alone, so the result equals a sort of the whole keys.
func sortByPos(keys, buf []uint64, maxPos uint32) []uint64 {
	var count [1 << radixDigit]int
	for shift := 32; shift < 32+bits.Len32(maxPos); shift += radixDigit {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&(1<<radixDigit-1)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & (1<<radixDigit - 1)
			buf[count[d]] = k
			count[d]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// applyDeltasLocked refreshes a uniform-weight view by merging the
// logged reservoir insertions and evictions into the previous sorted
// positions: one O(n + deltas) pass, no sort.
func (im *Impression) applyDeltasLocked() {
	if len(im.deltaAdd) == 0 && len(im.deltaDel) == 0 {
		return // sample unchanged (rejected offers only)
	}
	add := append([]int32(nil), im.deltaAdd...)
	del := append([]int32(nil), im.deltaDel...)
	slices.Sort(add)
	slices.Sort(del)
	// Cancel intra-batch pairs: a position inserted and later evicted
	// between two views never reaches the merged result.
	add, del = cancelCommon(add, del)
	old := im.view.Positions
	merged := make(vec.Sel, 0, len(old)+len(add)-len(del))
	i, a, d := 0, 0, 0
	for i < len(old) || a < len(add) {
		if i < len(old) && (a >= len(add) || old[i] <= add[a]) {
			v := old[i]
			i++
			for d < len(del) && del[d] < v {
				d++
			}
			if d < len(del) && del[d] == v {
				d++
				continue
			}
			merged = append(merged, v)
		} else {
			merged = append(merged, add[a])
			a++
		}
	}
	im.view = View{Positions: merged, index: &valueIndex{base: im.base, positions: merged}}
	im.deltaAdd = im.deltaAdd[:0]
	im.deltaDel = im.deltaDel[:0]
}

// cancelCommon removes the elements the two sorted lists share (one
// cancellation per occurrence), returning the trimmed lists.
func cancelCommon(a, b []int32) ([]int32, []int32) {
	ai, bi := 0, 0
	outA := a[:0]
	outB := b[:0]
	for ai < len(a) && bi < len(b) {
		switch {
		case a[ai] < b[bi]:
			outA = append(outA, a[ai])
			ai++
		case a[ai] > b[bi]:
			outB = append(outB, b[bi])
			bi++
		default:
			ai++
			bi++
		}
	}
	outA = append(outA, a[ai:]...)
	outB = append(outB, b[bi:]...)
	return outA, outB
}

// refreshFrom redraws this layer as a uniform subsample without
// replacement of its parent's current samples (the layer below in a
// hierarchy). The parent's focal point is inherited through its
// composition (§3.1), and uniform thinning keeps the inclusion weights
// valid: each chosen sample keeps weight parentWeight · k/n, its
// inclusion probability through both stages. Only the parent's slot
// indices go through the draw — Algorithm R, with the Uint64n calls a
// reservoir of samples would make — and only the k chosen samples are
// built, under the parent's lock and then this layer's.
func (im *Impression) refreshFrom(parent *Impression) {
	parent.mu.Lock()
	defer parent.mu.Unlock()
	n := parent.lenLocked()
	im.mu.Lock()
	defer im.mu.Unlock()
	im.version++
	im.viewOK = false
	im.markViewFullLocked()
	im.slots = reservoir.Slots(im.slots, im.cfg.Size, n, im.rng)
	k := len(im.slots)
	if im.derived == nil {
		im.derived = make([]factored, 0, im.cfg.Size)
	}
	im.derived = im.derived[:0]
	im.thins = append(im.thins[:0], parent.thins...)
	if k == 0 {
		return
	}
	// Uniform thinning multiplies inclusion probabilities by the
	// thinning rate; ratio weights are scale-free, so they carry the
	// same factor purely for interpretability.
	thin := float64(k) / float64(n)
	im.thins = append(im.thins, thin)
	im.derived = im.derived[:k]
	parent.gatherLocked(im.derived, im.slots, thin)
}

// gatherLocked writes the samples in the given slots to dst, Pi still
// factored and Weight scaled by thin. Its loops are small enough that
// the reads of many slots are in flight at once. A biased layer's
// weights are clamped at weightCapLocked.
func (im *Impression) gatherLocked(dst []factored, slots []int32, thin float64) {
	switch {
	case im.derived != nil:
		for j, slot := range slots {
			f := im.derived[slot]
			f.Weight *= thin
			dst[j] = f
		}
	case im.cfg.Policy == Biased:
		wcap := im.weightCapLocked()
		for j, slot := range slots {
			pos, w, inc := im.bias.Slot(int(slot))
			if w > wcap {
				w = wcap
			}
			dst[j] = factored{Pos: pos, Weight: w * thin, inc: inc}
		}
	default:
		for j, slot := range slots {
			// Weight and Pi 1, thinned.
			dst[j] = factored{Pos: im.posLocked(int(slot)), Weight: thin, inc: reservoir.Inclusion{PAccept: 1}}
		}
	}
}
