package estimate

import (
	"fmt"
	"math"
	"slices"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/hashtab"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Selection-native estimation: evaluate the aggregates of a bounded
// query directly over an impression's (positions, weights) view into a
// base-table snapshot — no standalone layer table, no per-query copy.
// The predicate runs through the engine's selection-vector scan
// (zone-map pruned, morsel-parallel, deterministic), and the Hájek
// estimators below consume the matched positions without materialising
// indicator or importance arrays: per query the only allocations are
// the matched selection itself.

// SelLayer describes one evaluation target: a sample of Base given by
// sorted row positions with row-aligned weights — exactly the shape of
// impression.View — and, optionally, the narrowed subset of positions
// its predicate scan visits. A standalone weighted table is a SelLayer
// over itself with positions 0..n-1.
type SelLayer struct {
	Name string
	// Base is the base table (typically an already-taken snapshot; the
	// estimators snapshot defensively either way).
	Base *table.Table
	// Positions are the sampled row positions, sorted ascending and
	// within Base's snapshot length.
	Positions vec.Sel
	// Scan, when non-nil, is the ascending subset of Positions the
	// predicate scan visits — typically impression.View.Narrow's
	// candidates. It must hold every position that can satisfy the
	// query's predicate: the rows it leaves out count as unmatched,
	// while the estimators still describe the whole sample, so estimates
	// equal those of a scan over Positions. nil visits every position.
	Scan vec.Sel
	// ScanIdx are Scan's sample indices, Positions[ScanIdx[j]] ==
	// Scan[j] (Narrow hands them out beside the scan): the estimators
	// map each match to its weights through them. Set with Scan.
	ScanIdx vec.Sel
	// Weights are per-row ratio weights used by ratio estimators
	// (AVG); nil means uniform.
	Weights []float64
	// CountWeights are per-row inclusion probabilities used by share
	// estimators (COUNT, SUM); nil falls back to Weights. Biased
	// reservoirs need the distinction: their composition is a nonlinear
	// (clamped) function of the bias factor that only the inclusion
	// model captures, while ratio estimators prefer the smooth bias
	// factors whose dispersion is orders of magnitude smaller.
	CountWeights []float64
	// BaseRows is the base-table cardinality N the sample represents.
	BaseRows int64
	// ShareSums, when set, are the importance-weight sums of the share
	// weights (CountWeights, else Weights) — what an impression view
	// precomputes once per refresh. nil means the estimators sum them
	// per query.
	ShareSums *stats.WeightSums
}

// Validate checks the layer invariants that do not need row data.
func (sl SelLayer) Validate() error {
	if sl.Base == nil {
		return fmt.Errorf("estimate: selection layer %q has no base table", sl.Name)
	}
	if sl.Weights != nil && len(sl.Weights) != len(sl.Positions) {
		return fmt.Errorf("estimate: selection layer %q has %d weights for %d positions",
			sl.Name, len(sl.Weights), len(sl.Positions))
	}
	if sl.CountWeights != nil && len(sl.CountWeights) != len(sl.Positions) {
		return fmt.Errorf("estimate: selection layer %q has %d count weights for %d positions",
			sl.Name, len(sl.CountWeights), len(sl.Positions))
	}
	if len(sl.ScanIdx) != len(sl.Scan) {
		return fmt.Errorf("estimate: selection layer %q has %d sample indices for %d scanned positions",
			sl.Name, len(sl.ScanIdx), len(sl.Scan))
	}
	if sl.BaseRows < 0 {
		return fmt.Errorf("estimate: selection layer %q has negative base cardinality", sl.Name)
	}
	return nil
}

// scan returns the positions the predicate scan visits and their
// sample indices; nil indices mean the scan is Positions, whose index j
// is j.
func (sl SelLayer) scan() (scan, idx vec.Sel) {
	if sl.Scan != nil {
		return sl.Scan, sl.ScanIdx
	}
	return sl.Positions, nil
}

// AggregateOnSelOpts evaluates the aggregates of q against the selection
// layer. The predicate scan runs the engine's selection-vector morsel path, so
// bounded execution over an impression pays |impression| rows — or the
// layer's narrowed Scan, pruned further by zone maps — at the configured
// parallelism, never a layer materialisation.
func AggregateOnSelOpts(sl SelLayer, q engine.Query, level float64, opts engine.ExecOptions) ([]Estimate, error) {
	if err := sl.Validate(); err != nil {
		return nil, err
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("estimate: query has no aggregates")
	}
	if q.GroupBy != "" {
		return nil, fmt.Errorf("estimate: grouped bounded queries are not supported (run one query per group)")
	}
	snap := sl.Base.Snapshot()
	scan, idx := sl.scan()
	selBase, _, err := engine.Filter(snap, q.Pred(), scan, opts)
	if err != nil {
		return nil, err
	}
	selSamp := sampleIndices(scan, idx, selBase, sl.Weights != nil || sl.CountWeights != nil)
	sumU, sumU2 := weightSums(sl)
	out := make([]Estimate, 0, len(q.Aggs))
	for _, spec := range q.Aggs {
		var g []float64
		if spec.Arg != nil {
			// Sel-native argument evaluation: cost and allocation are
			// proportional to the matched sample, never the base table.
			g, err = expr.EvalScalarSel(snap, spec.Arg, selBase)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, estimateOneSel(sl, spec, g, selBase, selSamp, level, sumU, sumU2))
	}
	return out, nil
}

// GroupedAggregateOnSel evaluates a grouped aggregate query against a
// selection layer, producing per-group estimates. The matched sample
// rows are partitioned through the engine's dict-coded group-id path on
// the base snapshot, so keys and first-seen order agree with engine
// GROUP BY results over the same selection. Groups that do not occur
// in the sample are necessarily absent (their population share is below
// the layer's resolution — the paper's cue to escalate to a more
// detailed impression).
func GroupedAggregateOnSel(sl SelLayer, q engine.Query, level float64, opts engine.ExecOptions) ([]GroupEstimate, error) {
	if err := sl.Validate(); err != nil {
		return nil, err
	}
	if q.GroupBy == "" {
		return nil, fmt.Errorf("estimate: query has no GROUP BY")
	}
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("estimate: grouped query has no aggregates")
	}
	snap := sl.Base.Snapshot()
	scan, idx := sl.scan()
	selBase, _, err := engine.Filter(snap, q.Pred(), scan, opts)
	if err != nil {
		return nil, err
	}
	selSamp := sampleIndices(scan, idx, selBase, true)
	grp, err := engine.GroupingFor(snap, q.GroupBy)
	if err != nil {
		return nil, err
	}
	tab := hashtab.NewInt64Table(0)
	gBase, gSamp := partitionByGroup(grp.IDs(tab, selBase, nil), tab.Len(), selBase, selSamp)
	// Share-weight sums describe the whole sample and are identical for
	// every group and aggregate: one pass, not groups x aggs passes.
	sumU, sumU2 := weightSums(sl)
	out := make([]GroupEstimate, tab.Len())
	for gid, key := range tab.Keys() {
		ge := GroupEstimate{Key: grp.Render(key)}
		for _, spec := range q.Aggs {
			var g []float64
			if spec.Arg != nil {
				g, err = expr.EvalScalarSel(snap, spec.Arg, gBase[gid])
				if err != nil {
					return nil, err
				}
			}
			ge.Estimates = append(ge.Estimates, estimateOneSel(sl, spec, g, gBase[gid], gSamp[gid], level, sumU, sumU2))
		}
		out[gid] = ge
	}
	return out, nil
}

// partitionByGroup splits the matched rows selBase and their sample
// indices selSamp by group id (ids aligned with selBase, groups
// distinct ids) with one count, offset and scatter pass: each group's
// rows keep their order, and all groups share two backing arrays.
func partitionByGroup(ids []int32, groups int, selBase, selSamp vec.Sel) (gBase, gSamp []vec.Sel) {
	off := make([]int, groups+1)
	for _, id := range ids {
		off[id+1]++
	}
	for g := 0; g < groups; g++ {
		off[g+1] += off[g]
	}
	base, samp := make(vec.Sel, len(ids)), make(vec.Sel, len(ids))
	next := slices.Clone(off[:groups])
	for i, id := range ids {
		j := next[id]
		next[id]++
		base[j], samp[j] = selBase[i], selSamp[i]
	}
	gBase, gSamp = make([]vec.Sel, groups), make([]vec.Sel, groups)
	for g := range gBase {
		gBase[g], gSamp[g] = base[off[g]:off[g+1]:off[g+1]], samp[off[g]:off[g+1]:off[g+1]]
	}
	return gBase, gSamp
}

// sampleIndices maps matched base positions back to their sample
// indices — the alignment needed to look up per-sample weights — by
// walking the scanned positions the matches are a subset of: idx[j] is
// scan[j]'s sample index, nil meaning j (the scan is Positions). A match
// next to the previous one costs one comparison; a farther one gallops
// from it and binary-searches the bracket it finds, so m matches in n
// scanned positions cost O(m log(n/m)), never a walk over the whole
// layer. When no weights exist (want false) it returns nil and the
// estimators take the uniform path without the lookups.
func sampleIndices(scan, idx, selBase vec.Sel, want bool) vec.Sel {
	if !want {
		return nil
	}
	out := make(vec.Sel, len(selBase))
	n, j := len(scan), 0
	for i, bp := range selBase {
		// scan[:j] < bp, and bp is in scan[j:].
		if scan[j] < bp {
			// scan[:lo] < bp; hi == n or scan[hi] >= bp.
			lo, hi := j+1, j+1
			for step := 1; hi < n && scan[hi] < bp; step <<= 1 {
				lo, hi = hi+1, hi+step
			}
			k, _ := slices.BinarySearch(scan[lo:min(hi, n)], bp)
			j = lo + k
		}
		out[i] = int32(j)
		if idx != nil {
			out[i] = idx[j]
		}
		j++
	}
	return out
}

// invWeight returns the importance weight u = 1/w for sample index si,
// floored at stats.WeightFloor. nil weights are uniform.
func invWeight(ws []float64, selSamp vec.Sel, i int) float64 {
	if ws == nil {
		return 1
	}
	return stats.InvWeight(ws[selSamp[i]])
}

// weightSums returns Σ u_i and Σ u_i² of the share weights over the
// whole sample: the layer's precomputed ShareSums when it carries them.
func weightSums(sl SelLayer) (sumU, sumU2 float64) {
	ws := shareWeights(sl)
	switch {
	case ws == nil:
		k := float64(len(sl.Positions))
		return k, k
	case sl.ShareSums != nil:
		return sl.ShareSums.U, sl.ShareSums.U2
	}
	s := stats.SumInvWeights(ws)
	return s.U, s.U2
}

// estimateOneSel computes one aggregate estimate over the matched
// selection. g is the aggregate argument evaluated at the matched rows
// (aligned with selBase; nil for COUNT(*)); selSamp holds the matched
// rows' sample indices (nil when the layer is unweighted). sumU/sumU2
// are the share-weight sums over the whole sample (weightSums),
// computed once by the caller.
func estimateOneSel(sl SelLayer, spec engine.AggSpec, g []float64, selBase, selSamp vec.Sel, level, sumU, sumU2 float64) Estimate {
	k := len(sl.Positions)
	matched := len(selBase)
	if k == 0 {
		return Estimate{
			Spec:     spec,
			Interval: stats.Interval{HalfWidth: math.Inf(1), Level: level},
		}
	}
	fpc := stats.FPC(int64(k), sl.BaseRows)
	switch spec.Func {
	case engine.Count:
		// COUNT(predicate) = N · E[1_A].
		iv := selHajekShare(shareWeights(sl), selSamp, nil, matched, level, fpc, sumU, sumU2)
		return Estimate{Spec: spec, Interval: iv.Scale(float64(sl.BaseRows)), SampleRows: matched}
	case engine.Sum:
		// SUM_A(g) = N · E[g·1_A].
		iv := selHajekShare(shareWeights(sl), selSamp, g, matched, level, fpc, sumU, sumU2)
		return Estimate{Spec: spec, Interval: iv.Scale(float64(sl.BaseRows)), SampleRows: matched}
	case engine.Avg:
		iv := selHajekMean(sl.Weights, selSamp, g, level, fpc)
		return Estimate{Spec: spec, Interval: iv, SampleRows: matched}
	case engine.Min, engine.Max, engine.StdDev:
		// Population extremes (and spread) cannot be bounded from a
		// sample without distributional assumptions; the unbounded
		// interval makes the bounded executor escalate to base data
		// whenever a bound is requested.
		var m stats.Moments
		m.ObserveAll(g)
		st := engine.AggState{Spec: spec, Moments: m}
		return Estimate{
			Spec:       spec,
			Interval:   stats.Interval{Estimate: st.Value(), HalfWidth: math.Inf(1), Level: level},
			SampleRows: matched,
		}
	}
	return Estimate{
		Spec:     spec,
		Interval: stats.Interval{Estimate: math.NaN(), HalfWidth: math.Inf(1), Level: level},
	}
}

// shareWeights returns the weights share estimators divide by:
// inclusion probabilities, falling back to ratio weights.
func shareWeights(sl SelLayer) []float64 {
	if sl.CountWeights != nil {
		return sl.CountWeights
	}
	return sl.Weights
}

// selHajekShare is the Hájek mean of the membership vector h over the
// whole sample — h = 1 (or the carried argument g, aligned with the
// matched rows) on matched rows, 0 elsewhere — computed without
// materialising h or the importance array: unmatched rows contribute
// (Σu² − Σ_matched u²)·mean² to the variance in one closed form. sumU/sumU2 are the
// whole-sample weight sums, hoisted to the caller so grouped
// estimation pays one pass, not one per group per aggregate.
func selHajekShare(ws []float64, selSamp vec.Sel, g []float64, matched int, level, fpc, sumU, sumU2 float64) stats.Interval {
	if sumU == 0 {
		return stats.Interval{HalfWidth: math.Inf(1), Level: level}
	}
	var mean float64
	for i := 0; i < matched; i++ {
		u := invWeight(ws, selSamp, i)
		if g != nil {
			mean += u * g[i]
		} else {
			mean += u
		}
	}
	mean /= sumU
	var varSum, matchedU2 float64
	for i := 0; i < matched; i++ {
		u := invWeight(ws, selSamp, i)
		h := 1.0
		if g != nil {
			h = g[i]
		}
		d := h - mean
		varSum += u * u * d * d
		matchedU2 += u * u
	}
	varSum += (sumU2 - matchedU2) * mean * mean
	if varSum < 0 {
		varSum = 0 // float cancellation guard
	}
	se := math.Sqrt(varSum) / sumU * fpc
	return stats.Interval{Estimate: mean, HalfWidth: stats.ZForConfidence(level) * se, Level: level}
}

// selHajekMean is the self-normalised estimate of E[g | A] over the
// matched rows with ratio weights, g aligned with the matched rows.
func selHajekMean(ws []float64, selSamp vec.Sel, g []float64, level, fpc float64) stats.Interval {
	if len(g) == 0 {
		return stats.Interval{HalfWidth: math.Inf(1), Level: level}
	}
	var sumU float64
	for i := range g {
		sumU += invWeight(ws, selSamp, i)
	}
	if sumU == 0 {
		return stats.Interval{HalfWidth: math.Inf(1), Level: level}
	}
	var mean float64
	for i, v := range g {
		mean += invWeight(ws, selSamp, i) * v
	}
	mean /= sumU
	var varSum float64
	for i, v := range g {
		u := invWeight(ws, selSamp, i)
		d := v - mean
		varSum += u * u * d * d
	}
	se := math.Sqrt(varSum) / sumU * fpc
	return stats.Interval{Estimate: mean, HalfWidth: stats.ZForConfidence(level) * se, Level: level}
}
