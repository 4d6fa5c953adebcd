package expr

import (
	"fmt"
	"math"

	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// d2r converts degrees to radians.
const d2r = math.Pi / 180

const (
	// coneMargin (degrees) widens every conservative cone bound: the
	// kernel box's declination and RA half-widths, its pole-clearance
	// test, and the zone-map interval Bounds reports. Away from the poles
	// the computed separation is within ~1e-15 relative of the true one,
	// but near a pole cos(dec) loses relative precision and the cone's RA
	// half-width asin(sin R / cos Dec0) becomes ill-conditioned; the
	// sphere-geometry slack a margin m buys there shrinks like m², the
	// rounding it must absorb grows like 1/m. At 0.01° the box stays
	// conservative by three orders of magnitude on every cone, while the
	// extra candidates it admits (a 0.01° rim on a degrees-wide cone) are
	// not measurable.
	coneMargin = 1e-2
	// coneBand is the relative band around sin²(Radius/2) inside which
	// the haversine term alone does not decide a row and the kernel
	// defers to AngularSeparation. Outside it the term is ~1e6 times
	// farther from the threshold than its rounding error.
	coneBand = 1e-9
)

// Cone is the fGetNearbyObjEq(ra, dec, r) predicate of the SkyServer
// workload: all objects within Radius degrees of (Ra0, Dec0) by angular
// separation on the celestial sphere.
//
// A row matches when its dec is on the sphere (within [-90, 90]; NaN
// and ±Inf are not) and AngularSeparation(Ra0, Dec0, ra, dec) <= Radius.
// An off-sphere dec is not a sky position: it never matches, so every
// match lies inside the declination band Bounds reports. FilterRange and
// FilterSel share one two-pass kernel whose answer is, row for row, that
// reference — including NaN and ±Inf right ascensions, negative radii
// and radii of 90° and more:
//
//  1. A branchless box prefilter (write-then-advance, like the kernels
//     of package vec) keeps a row only if its dec lies within
//     Dec0 ± (Radius + m) clamped to [-90, 90] (just [-90, 90] when the
//     centre is off the sphere) and, for a cone that stays m clear of
//     both poles (|Dec0| + Radius + m < 90), its RA offset d from Ra0
//     lies within the cone's widest RA extent dRA = asin(sin R / cos
//     Dec0) + m on either side of the 0/360 wrap (d <= dRA || d >= 360 − dRA).
//  2. Survivors compute the haversine term a with cos(Dec0) hoisted and
//     are accepted when a < sin²(R/2)·(1 − 1e-9), rejected when
//     a > sin²(R/2)·(1 + 1e-9), and otherwise decided by calling
//     AngularSeparation exactly as the reference does.
//
// Why it is exact: a point on the sphere inside the cone satisfies
// |dec − Dec0| <= R and |RA offset| <= asin(sin R / cos Dec0), and the
// margin m (coneMargin) exceeds the computed separation's rounding error
// in both, so pass 1 never drops a row the reference accepts. Pass 2's
// a is the very term AngularSeparation computes (one shared function),
// and the separation is monotone in a, so outside the 1e-9 band a alone
// decides the comparison; inside it the reference runs. Cones where the
// bounds do not apply (a centre off the sphere, a radius that is not
// positive or is 90° or more, a threshold that would underflow) run with
// the RA box or the band switched off, never with a looser test.
type Cone struct {
	RaCol, DecCol string
	Ra0, Dec0     float64 // centre, degrees
	Radius        float64 // degrees
}

// FilterRange implements Predicate through the cone kernel.
func (c Cone) FilterRange(t *table.Table, lo, hi int) (vec.Sel, error) {
	k, err := c.kernel(t)
	if err != nil {
		return nil, err
	}
	return k.refine(k.boxRange(vec.GetSel(hi-lo), lo, hi)), nil
}

// FilterSel implements Predicate through the cone kernel.
func (c Cone) FilterSel(t *table.Table, sel vec.Sel) (vec.Sel, error) {
	k, err := c.kernel(t)
	if err != nil {
		return nil, err
	}
	return k.refine(k.boxSel(vec.GetSel(len(sel)), sel)), nil
}

// Points implements Predicate: a cone query logs its centre on both
// positional attributes — exactly the paper's SkyServer example where
// fGetNearbyObjEq(185, 0, 3) contributes ra=185 and dec=0 to the
// predicate set.
func (c Cone) Points() []Point {
	return []Point{{Attr: c.RaCol, Value: c.Ra0}, {Attr: c.DecCol, Value: c.Dec0}}
}

// String implements Predicate.
func (c Cone) String() string {
	return fmt.Sprintf("fGetNearbyObjEq(%g, %g, %g)", c.Ra0, c.Dec0, c.Radius)
}

// Bounds implements Bounder: a matching row on the sphere has
// |dec − Dec0| <= Radius, widened by coneMargin to absorb the rounding
// of the computed separation, so the cone bounds its declination column.
// (Right ascension wraps at 0/360 and shrinks with cos(dec), so it is
// left unbounded; BoxesOf pairs the band with the kernel's RA test.) A
// centre off the sphere bounds nothing; rows with declinations outside
// [-90, 90] never match.
func (c Cone) Bounds() []Bound {
	lo, hi, ok := c.decBox()
	if !ok {
		return nil
	}
	return []Bound{{Attr: c.DecCol, Lo: lo, Hi: hi}}
}

// decBox is the conservative declination interval of the cone; ok is
// false when the centre is off the sphere and no interval is.
func (c Cone) decBox() (lo, hi float64, ok bool) {
	if !(math.Abs(c.Dec0) <= 90) {
		return 0, 0, false
	}
	r := c.Radius + coneMargin
	return c.Dec0 - r, c.Dec0 + r, true
}

// raBox is the cone's pass-1 RA test |ra − Ra0| <= dRA || |ra − Ra0|
// >= dRAWrap: dRA = asin(sin R / cos Dec0) + m and dRAWrap = 360 − dRA
// for a non-negative radius m clear of both poles, dRA = +Inf and
// dRAWrap = −Inf (the test off) otherwise. The kernel and BoxesOf both
// take it from here, so the box a narrowed scan is cut to is the box
// the kernel applies.
func (c Cone) raBox() (dRA, dRAWrap float64) {
	if c.Radius >= 0 && math.Abs(c.Dec0)+c.Radius+coneMargin < 90 {
		if x := math.Sin(c.Radius*d2r) / math.Cos(c.Dec0*d2r); x < 1 {
			dRA = math.Asin(x)/d2r + coneMargin
			return dRA, 360 - dRA
		}
	}
	return math.Inf(1), math.Inf(-1)
}

// box is the cone's pass-1 box as a two-column Box: the declination band
// of Bounds by the RA test of raBox. ok is false when the RA test is off
// or Ra0 is not finite; the band alone then bounds the cone.
func (c Cone) box() (b Box, ok bool) {
	lo, hi, onSphere := c.decBox()
	dRA, wrap := c.raBox()
	if !onSphere || math.IsInf(dRA, 1) || !(math.Abs(c.Ra0) <= math.MaxFloat64) {
		return Box{}, false
	}
	return Box{Bound: Bound{Attr: c.DecCol, Lo: lo, Hi: hi}, Col: c.RaCol, Center: c.Ra0, Near: dRA, Far: wrap}, true
}

// AngularSeparation returns the great-circle angle in degrees between
// two sky positions given in degrees (haversine formula).
func AngularSeparation(ra1, dec1, ra2, dec2 float64) float64 {
	a := haversine(math.Cos(dec1*d2r), ra1, dec1, ra2, dec2)
	if a > 1 {
		a = 1
	}
	return 2 * math.Asin(math.Sqrt(a)) / d2r
}

// haversine is the haversine term sin²(Δdec/2) + cos dec1·cos dec2·
// sin²(Δra/2) with cos(dec1) supplied by the caller, so the cone kernel
// hoists it out of its row loop and still computes the very value
// AngularSeparation does. The explicit conversions forbid fused
// multiply-adds, which would let the two call sites round differently.
func haversine(cosDec1, ra1, dec1, ra2, dec2 float64) float64 {
	sp := math.Sin((dec2 - dec1) * d2r / 2)
	sl := math.Sin((ra2 - ra1) * d2r / 2)
	return float64(sp*sp) + float64(float64(float64(cosDec1*math.Cos(dec2*d2r))*sl)*sl)
}

// coneKernel is a Cone resolved against one table: its coordinate
// columns and the precomputed box and band of the two-pass kernel.
type coneKernel struct {
	ra, dec           []float64
	ra0, dec0, radius float64
	cosDec0           float64
	// Pass 1: the declination box, within [-90, 90], and the RA
	// half-width; ±Inf switch the RA test off.
	decLo, decHi float64
	dRA, dRAWrap float64 // dRAWrap = 360 − dRA
	// Pass 2: the haversine thresholds below/above which a row is
	// accepted/rejected without the reference.
	accept, reject float64
}

// kernel resolves c against t.
func (c Cone) kernel(t *table.Table) (coneKernel, error) {
	ra, err := t.Float64(c.RaCol)
	if err != nil {
		return coneKernel{}, err
	}
	dec, err := t.Float64(c.DecCol)
	if err != nil {
		return coneKernel{}, err
	}
	k := coneKernel{
		ra: ra, dec: dec, ra0: c.Ra0, dec0: c.Dec0, radius: c.Radius,
		cosDec0: math.Cos(c.Dec0 * d2r),
		decLo:   -90, decHi: 90,
		dRA: math.Inf(1), dRAWrap: math.Inf(-1),
		accept: -1, reject: math.Inf(1),
	}
	lo, hi, onSphere := c.decBox()
	if !onSphere {
		return k, nil
	}
	k.decLo, k.decHi = max(lo, -90), min(hi, 90)
	k.dRA, k.dRAWrap = c.raBox()
	// The band needs a positive radius, a normal sin²(R/2) and a term
	// well below 1, where the separation is well-conditioned in a.
	if s := math.Sin(c.Radius * d2r / 2); c.Radius > 0 && c.Radius < 90 && s*s > 1e-300 {
		k.accept, k.reject = s*s*(1-coneBand), s*s*(1+coneBand)
	}
	return k, nil
}

// b2i converts a comparison outcome into a cursor increment; the
// compiler lowers it to SETcc, keeping the box loops branchless.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sized returns dst with length n, reallocating only when the scratch
// capacity is insufficient.
func sized(dst vec.Sel, n int) vec.Sel {
	if cap(dst) < n {
		return make(vec.Sel, n)
	}
	return dst[:n]
}

// The box loops below are pass 1: a row (ra, dec) is kept when
//
//	decLo <= dec <= decHi && (|ra − ra0| <= dRA || |ra − ra0| >= dRAWrap)
//
// which a NaN dec fails. The test is written
// out in each loop over locals hoisted from the kernel: as a method it
// is too large to inline, and the call per row dominated the pass.

// boxRange writes the rows of [lo, hi) that pass the box into dst.
func (k *coneKernel) boxRange(dst vec.Sel, lo, hi int) vec.Sel {
	if hi < lo {
		hi = lo
	}
	dst = sized(dst, hi-lo)
	ra, dec := k.ra[:hi], k.dec[:hi] // hoist the bound checks
	ra0, decLo, decHi, dRA, dRAWrap := k.ra0, k.decLo, k.decHi, k.dRA, k.dRAWrap
	n := 0
	for i := lo; i < hi; i++ {
		dst[n] = int32(i)
		d, de := math.Abs(ra[i]-ra0), dec[i]
		n += b2i(de >= decLo) & b2i(de <= decHi) & (b2i(d <= dRA) | b2i(d >= dRAWrap))
	}
	return dst[:n]
}

// boxSel writes the rows of sel that pass the box into dst.
func (k *coneKernel) boxSel(dst, sel vec.Sel) vec.Sel {
	dst = sized(dst, len(sel))
	ra, dec := k.ra, k.dec
	ra0, decLo, decHi, dRA, dRAWrap := k.ra0, k.decLo, k.decHi, k.dRA, k.dRAWrap
	n := 0
	for _, p := range sel {
		dst[n] = p
		d, de := math.Abs(ra[p]-ra0), dec[p]
		n += b2i(de >= decLo) & b2i(de <= decHi) & (b2i(d <= dRA) | b2i(d >= dRAWrap))
	}
	return dst[:n]
}

// refine is pass 2: it compacts the box survivors in cand, in place, to
// the rows inside the cone.
func (k *coneKernel) refine(cand vec.Sel) vec.Sel {
	n := 0
	for _, p := range cand {
		cand[n] = p
		ra, dec := k.ra[p], k.dec[p]
		a := haversine(k.cosDec0, k.ra0, k.dec0, ra, dec)
		in := a >= 0 && a < k.accept
		if !in && !(a > k.reject) {
			in = AngularSeparation(k.ra0, k.dec0, ra, dec) <= k.radius
		}
		n += b2i(in)
	}
	return cand[:n]
}
