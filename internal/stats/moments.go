package stats

import "math"

// Moments accumulates count, mean, variance, min and max in one pass
// without a division per value. It keeps shifted sums: with k the first
// observed value (0 when that value is not finite), s1 = Σ(v−k) and
// s2 = Σ(v−k)². Shifting by a value of the data keeps the sums small
// when the data sit far from zero (offset 1e9, spread 1e-3), so the
// variance s2 − s1²/n does not cancel away; the shift is accurate while
// the data's spread is not tiny against their distance from k, which
// holds for the morsel-sized parts the engine folds. Merge re-centres
// on the merged mean, so a long merge chain keeps its shift next to the
// data.
type Moments struct {
	n        int64
	k        float64 // shift: the first observed value, if finite
	s1, s2   float64 // Σ(v−k), Σ(v−k)²
	min, max float64
}

// start initialises an empty accumulator on its first value v.
func (m *Moments) start(v float64) {
	m.k = 0
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		m.k = v
	}
	m.min, m.max = v, v
}

// Observe adds one value.
func (m *Moments) Observe(v float64) {
	if m.n == 0 {
		m.start(v)
	} else {
		if v < m.min {
			m.min = v
		}
		if v > m.max {
			m.max = v
		}
	}
	m.n++
	d := v - m.k
	m.s1 += d
	m.s2 += d * d
}

// ObserveAll adds each value of vs.
func (m *Moments) ObserveAll(vs []float64) {
	if len(vs) == 0 {
		return
	}
	if m.n == 0 {
		m.start(vs[0])
	}
	k, s1, s2, lo, hi := m.k, m.s1, m.s2, m.min, m.max
	for _, v := range vs {
		d := v - k
		s1 += d
		s2 += d * d
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m.n += int64(len(vs))
	m.s1, m.s2, m.min, m.max = s1, s2, lo, hi
}

// ObserveSel adds vals[p] for each position p of sel, in order.
func (m *Moments) ObserveSel(vals []float64, sel []int32) {
	if len(sel) == 0 {
		return
	}
	if m.n == 0 {
		m.start(vals[sel[0]])
	}
	k, s1, s2, lo, hi := m.k, m.s1, m.s2, m.min, m.max
	for _, p := range sel {
		v := vals[p]
		d := v - k
		s1 += d
		s2 += d * d
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m.n += int64(len(sel))
	m.s1, m.s2, m.min, m.max = s1, s2, lo, hi
}

// ObserveGrouped adds vals[rows[j]] to ms[gids[j]*stride] for each j,
// in order: the grouped fold, one argument column at a time. Each
// accumulator sees its rows in the order Observe would, with the same
// arithmetic, so the result is bit-identical to per-row Observe calls.
// stride is the number of aggregates interleaved in ms (pass ms[i:]
// to fold aggregate i of a [gid*stride + agg] arena); gids must be as
// long as rows.
func ObserveGrouped(ms []Moments, stride int, vals []float64, rows, gids []int32) {
	gids = gids[:len(rows)]
	for j, p := range rows {
		v := vals[p]
		m := &ms[int(gids[j])*stride]
		if m.n == 0 {
			m.start(v)
		} else {
			if v < m.min {
				m.min = v
			}
			if v > m.max {
				m.max = v
			}
		}
		m.n++
		d := v - m.k
		m.s1 += d
		m.s2 += d * d
	}
}

// ObserveRepeat adds n copies of v at the cost of one.
func (m *Moments) ObserveRepeat(v float64, n int) {
	if n <= 0 {
		return
	}
	m.Observe(v)
	rest, d := float64(n-1), v-m.k
	m.n += int64(n - 1)
	m.s1 += rest * d
	m.s2 += rest * d * d
}

// N returns the number of observations.
func (m *Moments) N() int64 { return m.n }

// Mean returns the sample mean (0 for empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.k + m.s1/float64(m.n)
}

// m2 returns the sum of squared deviations from the mean (n > 0).
func (m *Moments) m2() float64 { return m.s2 - m.s1*m.s1/float64(m.n) }

// Min returns the smallest observation (0 for empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 for empty).
func (m *Moments) Max() float64 { return m.max }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return math.Max(m.m2(), 0) / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Merge combines another accumulator into m (Chan et al. parallel
// update) and re-centres m on the merged mean. The difference of the
// two means is taken as the difference of their shifts plus that of
// their small offsets, never of the rounded means themselves, and the
// re-centred s1 keeps what rounding the merged mean to k lost: both
// matter once the mean is large against the spread (offset 1e9, spread
// 1e-3), where one rounding of a mean is already a visible share of the
// variance.
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	na, nb := float64(m.n), float64(o.n)
	n := na + nb
	ea, eb := m.s1/na, o.s1/nb // each mean's offset from its shift
	if math.IsInf(ea, 0) || math.IsInf(eb, 0) {
		// An infinite input: the update would subtract infinite means.
		// The merged mean is their IEEE sum (NaN for +Inf with -Inf),
		// the variance NaN.
		m.k, m.s1, m.s2 = 0, ea+eb, math.NaN()
	} else {
		d := (o.k - m.k) + (eb - ea) // mean(o) − mean(m)
		e := ea + d*nb/n             // merged mean − m.k
		m2 := m.m2() + o.m2() + d*d*na*nb/n
		k := m.k + e
		r := (m.k - k) + e // merged mean − k
		m.k, m.s1, m.s2 = k, n*r, m2+n*r*r
	}
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n += o.n
}
