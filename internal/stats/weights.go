package stats

import "math"

// WeightFloor guards importance weights against division by the zero
// weights that can only occur for tuples retained from a biased
// reservoir's fill phase.
const WeightFloor = 1e-12

// InvWeight returns the importance weight u = 1/w of a sample weight w,
// with w floored at WeightFloor (NaN included).
func InvWeight(w float64) float64 {
	if w < WeightFloor || math.IsNaN(w) {
		w = WeightFloor
	}
	return 1 / w
}

// WeightSums are the importance-weight sums Σu and Σu² of a weighted
// sample — the whole-sample terms of the Hájek share estimators.
type WeightSums struct {
	U, U2 float64
}

// SumInvWeights returns the importance-weight sums of ws, accumulated
// in slice order so every caller gets the same bits.
func SumInvWeights(ws []float64) WeightSums {
	var s WeightSums
	for _, w := range ws {
		u := InvWeight(w)
		s.U += u
		s.U2 += u * u
	}
	return s
}
