package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"sciborq"
)

// Everything the program is sent — rows, SQL text, bind values, arrival
// times — is generated here from the run's seed. The harness owns its
// generator (it does not call internal/skyserver) so the inputs stay the
// same on every commit the benchmark is run against.

const factTable = "PhotoObjAll"

// Sky window and clusters: the ranges of the paper's Figures 4 and 7.
const (
	raMin, raMax   = 120.0, 240.0
	decMin, decMax = 0.0, 60.0
	numFields      = 256
	clusterFrac    = 0.35
	batchRows      = 20_000 // one "nightly load"
)

type cluster struct{ ra, dec, sigma, weight float64 }

var clusters = []cluster{
	{ra: 165, dec: 20, sigma: 6, weight: 0.6},
	{ra: 205, dec: 40, sigma: 4, weight: 0.4},
}

var typeNames = []string{"GALAXY", "STAR", "QSO", "UNKNOWN"}
var typeFracs = []float64{0.55, 0.35, 0.07, 0.03}

// rngFor derives an independent deterministic stream for one purpose of
// one run: the same (seed, stream) always yields the same sequence.
func rngFor(seed uint64, stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

func factSchema() sciborq.Schema {
	return sciborq.Schema{
		{Name: "objID", Type: sciborq.Int64},
		{Name: "fieldID", Type: sciborq.Int64},
		{Name: "ra", Type: sciborq.Float64},
		{Name: "dec", Type: sciborq.Float64},
		{Name: "u", Type: sciborq.Float64},
		{Name: "g", Type: sciborq.Float64},
		{Name: "r", Type: sciborq.Float64},
		{Name: "i", Type: sciborq.Float64},
		{Name: "z", Type: sciborq.Float64},
		{Name: "type", Type: sciborq.String},
		{Name: "mjd", Type: sciborq.Int64},
		{Name: "clean", Type: sciborq.Bool},
	}
}

// sky is the generated fact data in typed columns: the input the
// program is loaded with and the truth its answers are checked against.
type sky struct {
	fieldID       []int64
	ra, dec       []float64
	u, g, r, i, z []float64
	typ           []uint8 // index into typeNames
	clean         []bool
	grid          *skyGrid // built by index(); nil until then
}

func (s *sky) len() int { return len(s.ra) }

// generate appends n rows to s from rng.
func (s *sky) generate(rng *rand.Rand, n int) {
	for k := 0; k < n; k++ {
		var ra, dec float64
		if rng.Float64() < clusterFrac {
			c := clusters[0]
			if rng.Float64() >= c.weight {
				c = clusters[1]
			}
			for {
				ra = c.ra + rng.NormFloat64()*c.sigma
				dec = c.dec + rng.NormFloat64()*c.sigma
				if ra >= raMin && ra < raMax && dec >= decMin && dec < decMax {
					break
				}
			}
		} else {
			ra = raMin + rng.Float64()*(raMax-raMin)
			dec = decMin + rng.Float64()*(decMax-decMin)
		}
		r := math.Min(24, math.Max(12, 18+rng.NormFloat64()*2))
		g := r + 0.6 + rng.NormFloat64()*0.3
		u := g + 1.2 + rng.NormFloat64()*0.5
		i := r - 0.3 + rng.NormFloat64()*0.2
		z := i - 0.2 + rng.NormFloat64()*0.2
		t, p := 0, rng.Float64()
		for t < len(typeFracs)-1 && p >= typeFracs[t] {
			p -= typeFracs[t]
			t++
		}
		s.fieldID = append(s.fieldID, int64(rng.IntN(numFields)))
		s.ra, s.dec = append(s.ra, ra), append(s.dec, dec)
		s.u, s.g, s.r = append(s.u, u), append(s.g, g), append(s.r, r)
		s.i, s.z = append(s.i, i), append(s.z, z)
		s.typ = append(s.typ, uint8(t))
		s.clean = append(s.clean, rng.Float64() < 0.9)
	}
}

// rows renders rows [lo, hi) as a load batch; objID is the row index and
// mjd advances one night per batch.
func (s *sky) rows(lo, hi int) []sciborq.Row {
	out := make([]sciborq.Row, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, sciborq.Row{
			int64(k), s.fieldID[k], s.ra[k], s.dec[k],
			s.u[k], s.g[k], s.r[k], s.i[k], s.z[k],
			typeNames[s.typ[k]], int64(55200 + k/batchRows), s.clean[k],
		})
	}
	return out
}

// Query text. Literals are printed with %g so that a statement parses
// back to exactly the float64 the reference evaluator uses.

const (
	timeBudgetMs = 5
	errEpsilon   = 0.2
	coneRadius   = 3.0
)

var (
	sqlConeTime = fmt.Sprintf("SELECT COUNT(*) AS n, AVG(r) AS m FROM %s WHERE fGetNearbyObjEq(185, 0, 3) WITHIN TIME %dms", factTable, timeBudgetMs)
	sqlConeErr  = fmt.Sprintf("SELECT COUNT(*) AS n, AVG(r) AS m FROM %s WHERE fGetNearbyObjEq(185, 0, 3) WITHIN ERROR %g CONFIDENCE 0.95", factTable, errEpsilon)
)

// coneCentre draws a cone-search centre: nine in ten around the two
// clusters the impressions are biased towards, one in ten anywhere in
// the window. Centres keep a margin of one radius from the window edge
// and are non-negative, as the prepared-statement binder needs.
func coneCentre(rng *rand.Rand) (ra, dec float64) {
	for {
		if rng.Float64() < 0.9 {
			c := clusters[0]
			if rng.Float64() >= c.weight {
				c = clusters[1]
			}
			ra = c.ra + rng.NormFloat64()*c.sigma
			dec = c.dec + rng.NormFloat64()*c.sigma
		} else {
			ra = raMin + rng.Float64()*(raMax-raMin)
			dec = decMin + rng.Float64()*(decMax-decMin)
		}
		if ra >= raMin+coneRadius && ra < raMax-coneRadius && dec >= decMin+coneRadius && dec < decMax-coneRadius {
			return ra, dec
		}
	}
}

// box is an exact filter the reference evaluator understands: a
// conjunction of up to four range conditions. A condition whose upper
// limit is zero is absent (every real upper limit is positive).
type box struct {
	raLo, raHi   float64 // ra BETWEEN raLo AND raHi
	decLo, decHi float64 // dec BETWEEN decLo AND decHi
	rMax         float64 // r < rMax
	idLo, idHi   int64   // objID BETWEEN idLo AND idHi
}

func (b box) where() string {
	var conds []string
	if b.idHi != 0 {
		conds = append(conds, fmt.Sprintf("objID BETWEEN %d AND %d", b.idLo, b.idHi))
	}
	if b.raHi != 0 {
		conds = append(conds, fmt.Sprintf("ra BETWEEN %g AND %g", b.raLo, b.raHi))
	}
	if b.decHi != 0 {
		conds = append(conds, fmt.Sprintf("dec BETWEEN %g AND %g", b.decLo, b.decHi))
	}
	if b.rMax != 0 {
		conds = append(conds, fmt.Sprintf("r < %g", b.rMax))
	}
	return strings.Join(conds, " AND ")
}

func (b box) match(s *sky, k int) bool {
	if b.idHi != 0 && (int64(k) < b.idLo || int64(k) > b.idHi) {
		return false
	}
	if b.raHi != 0 && (s.ra[k] < b.raLo || s.ra[k] > b.raHi) {
		return false
	}
	if b.decHi != 0 && (s.dec[k] < b.decLo || s.dec[k] > b.decHi) {
		return false
	}
	return b.rMax == 0 || s.r[k] < b.rMax
}

// round3 keeps generated literals short; the rounded value is what both
// the SQL text and the reference evaluator use.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
