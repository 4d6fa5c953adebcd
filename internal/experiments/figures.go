// Package experiments regenerates every evaluation artifact of the
// SciBORQ paper — Figure 4 and Figure 7 — and quantifies the paper's
// qualitative claims as experiments E1–E8 (see DESIGN.md for the
// experiment index). cmd/figures and cmd/experiments print the results;
// the root bench suite measures their cost.
package experiments

import (
	"fmt"
	"strings"

	"sciborq/internal/impression"
	"sciborq/internal/kde"
	"sciborq/internal/skyserver"
	"sciborq/internal/stats"
	"sciborq/internal/vec"
	"sciborq/internal/workload"
	"sciborq/internal/xrand"
)

// Curve is a named series sampled on a shared x grid.
type Curve struct {
	Name string
	Ys   []float64
}

// Figure4Attr holds the Figure-4 panels for one attribute: the
// predicate-set histogram and the four density curves (f̂ with a chosen
// bandwidth, oversmoothed, undersmoothed, and the paper's binned f̆).
type Figure4Attr struct {
	Attr      string
	Hist      *stats.Histogram
	Grid      []float64
	Curves    []Curve // fhat, oversmoothed, undersmoothed, fbreve
	L1        float64 // ∫|f̂ − f̆| — the "almost identical" claim
	MaxAbsDev float64
	Bandwidth float64 // the carefully chosen h for f̂
}

// Figure4Result bundles both attributes (ra, dec) as in the paper.
type Figure4Result struct {
	Queries int
	Attrs   []Figure4Attr
}

// Figure4 regenerates Figure 4: log `queries` cone queries around the
// paper-like focal points, build the Figure-5 histograms per attribute,
// and evaluate f̂ (reference, oversmoothed, undersmoothed) and f̆.
func Figure4(queries, beta int, seed uint64) (*Figure4Result, error) {
	logger, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: beta},
		{Name: "dec", Min: 0, Max: 60, Beta: beta},
	})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Figure4Focals(), xrand.New(seed))
	if err != nil {
		return nil, err
	}
	// f̂ is the full-KDE reference over the raw predicate values, which
	// the logger does not keep: collect them from the generated queries.
	raw := map[string][]float64{}
	for _, c := range gen.NextN(queries) {
		logger.LogQuery(c)
		for _, pt := range c.Points() {
			raw[pt.Attr] = append(raw[pt.Attr], pt.Value)
		}
	}
	res := &Figure4Result{Queries: queries}
	for _, attr := range []string{"ra", "dec"} {
		fa, err := figure4Attr(logger, attr, raw[attr])
		if err != nil {
			return nil, err
		}
		res.Attrs = append(res.Attrs, fa)
	}
	return res, nil
}

func figure4Attr(logger *workload.Logger, attr string, raw []float64) (Figure4Attr, error) {
	hist, err := logger.Histogram(attr)
	if err != nil {
		return Figure4Attr{}, err
	}
	h, err := kde.SilvermanBandwidth(raw)
	if err != nil {
		return Figure4Attr{}, err
	}
	fhat, err := kde.NewFull(raw, h, kde.Gaussian{})
	if err != nil {
		return Figure4Attr{}, err
	}
	over, err := kde.NewFull(raw, h*kde.OversmoothFactor, kde.Gaussian{})
	if err != nil {
		return Figure4Attr{}, err
	}
	under, err := kde.NewFull(raw, h*kde.UndersmoothFactor, kde.Gaussian{})
	if err != nil {
		return Figure4Attr{}, err
	}
	fbreve, err := kde.NewBinned(hist, kde.Gaussian{})
	if err != nil {
		return Figure4Attr{}, err
	}
	// Fidelity reference: the paper's claim is that f̆ (whose bandwidth
	// is always the bin width w) matches f̂ evaluated at that same
	// bandwidth; the Silverman curve remains in the plot as the
	// "carefully chosen" reference.
	fhatW, err := kde.NewFull(raw, hist.Width, kde.Gaussian{})
	if err != nil {
		return Figure4Attr{}, err
	}
	const points = 121
	lo, hi := hist.Min, hist.Max()
	grid := make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := range grid {
		grid[i] = lo + float64(i)*step
	}
	eval := func(f func(float64) float64) []float64 {
		ys := make([]float64, len(grid))
		for i, x := range grid {
			ys[i] = f(x)
		}
		return ys
	}
	return Figure4Attr{
		Attr: attr,
		Hist: hist,
		Grid: grid,
		Curves: []Curve{
			{Name: "fhat", Ys: eval(fhat.Eval)},
			{Name: "oversmoothed", Ys: eval(over.Eval)},
			{Name: "undersmoothed", Ys: eval(under.Eval)},
			{Name: "fbreve", Ys: eval(fbreve.Eval)},
		},
		L1:        kde.L1Distance(fhatW.Eval, fbreve.Eval, lo, hi, 1000),
		MaxAbsDev: kde.MaxAbsDiff(fhatW.Eval, fbreve.Eval, lo, hi, 500),
		Bandwidth: h,
	}, nil
}

// Render prints the figure as aligned data rows (one per grid point).
func (r *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 — predicate-set histograms and density estimates (%d queries)\n", r.Queries)
	for _, fa := range r.Attrs {
		fmt.Fprintf(&b, "\n[%s] bandwidth(Silverman)=%.3f  L1(f̂,f̆)=%.4f  max|f̂−f̆|=%.5f\n",
			fa.Attr, fa.Bandwidth, fa.L1, fa.MaxAbsDev)
		fmt.Fprintf(&b, "%10s %8s %10s %10s %10s %10s\n",
			fa.Attr, "count", "fhat", "oversm", "undersm", "fbreve")
		for i, x := range fa.Grid {
			if i%4 != 0 { // print every 4th grid point for readability
				continue
			}
			count := int64(0)
			if x >= fa.Hist.Min && x < fa.Hist.Max() {
				count = fa.Hist.Bins[fa.Hist.BinIndex(x)].Count
			}
			fmt.Fprintf(&b, "%10.2f %8d %10.5f %10.5f %10.5f %10.5f\n",
				x, count, fa.Curves[0].Ys[i], fa.Curves[1].Ys[i], fa.Curves[2].Ys[i], fa.Curves[3].Ys[i])
		}
	}
	return b.String()
}

// Figure7Attr holds one attribute's three histograms of Figure 7.
type Figure7Attr struct {
	Attr    string
	Base    *stats.Histogram
	Uniform *stats.Histogram
	Biased  *stats.Histogram
	// FocalMassBase/Uniform/Biased are the fraction of tuples within
	// the focal windows; biased must exceed uniform ≈ base.
	FocalMassBase    float64
	FocalMassUniform float64
	FocalMassBiased  float64
}

// Figure7Result bundles both attributes.
type Figure7Result struct {
	BaseRows   int
	SampleSize int
	Attrs      []Figure7Attr
}

// focalWindows gives the interest windows per attribute implied by
// workload.Figure4Focals (±2σ around each focal point).
func focalWindows(attr string) [][2]float64 {
	if attr == "ra" {
		return [][2]float64{{144, 176}, {200, 220}}
	}
	return [][2]float64{{7, 23}, {35, 55}}
}

// Figure7 regenerates Figure 7: a >600k-tuple synthetic PhotoObjAll, a
// 400-query workload defining the interest (same focal mix as Figure 4),
// and two n-tuple impressions — uniform and biased — whose per-attribute
// histograms are returned next to the base data's.
func Figure7(baseRows, sampleSize, beta int, seed uint64) (*Figure7Result, error) {
	cfg := skyserver.DefaultConfig(baseRows)
	cfg.Seed = seed
	db, err := skyserver.Generate(cfg)
	if err != nil {
		return nil, err
	}
	logger, err := workload.NewLogger([]workload.AttrSpec{
		{Name: "ra", Min: 120, Max: 240, Beta: beta},
		{Name: "dec", Min: 0, Max: 60, Beta: beta},
	})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Figure4Focals(), xrand.New(seed+1))
	if err != nil {
		return nil, err
	}
	for _, c := range gen.NextN(400) {
		logger.LogQuery(c)
	}
	uni, err := impression.New(db.PhotoObjAll, impression.Config{
		Name: "uniform", Size: sampleSize, Policy: impression.Uniform, Seed: seed + 2,
	})
	if err != nil {
		return nil, err
	}
	bia, err := impression.New(db.PhotoObjAll, impression.Config{
		Name: "biased", Size: sampleSize, Policy: impression.Biased,
		Logger: logger, Attrs: []string{"ra", "dec"}, Seed: seed + 3,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < db.PhotoObjAll.Len(); i++ {
		uni.Offer(int32(i))
		bia.Offer(int32(i))
	}
	res := &Figure7Result{BaseRows: baseRows, SampleSize: sampleSize}
	for _, attr := range []string{"ra", "dec"} {
		fa, err := figure7Attr(db, uni, bia, attr, beta)
		if err != nil {
			return nil, err
		}
		res.Attrs = append(res.Attrs, fa)
	}
	return res, nil
}

func figure7Attr(db *skyserver.Database, uni, bia *impression.Impression, attr string, beta int) (Figure7Attr, error) {
	min, max := 120.0, 240.0
	if attr == "dec" {
		min, max = 0, 60
	}
	mk := func() *stats.Histogram { return stats.MustNewHistogram(min, max, beta) }
	baseH, uniH, biaH := mk(), mk(), mk()
	baseVals, err := db.PhotoObjAll.Float64(attr)
	if err != nil {
		return Figure7Attr{}, err
	}
	baseH.ObserveAll(baseVals)
	uVals := vec.GatherFloat64(baseVals, uni.View().Positions)
	uniH.ObserveAll(uVals)
	bVals := vec.GatherFloat64(baseVals, bia.View().Positions)
	biaH.ObserveAll(bVals)
	mass := func(vals []float64) float64 {
		if len(vals) == 0 {
			return 0
		}
		in := 0
		for _, v := range vals {
			for _, w := range focalWindows(attr) {
				if v >= w[0] && v < w[1] {
					in++
					break
				}
			}
		}
		return float64(in) / float64(len(vals))
	}
	return Figure7Attr{
		Attr: attr, Base: baseH, Uniform: uniH, Biased: biaH,
		FocalMassBase:    mass(baseVals),
		FocalMassUniform: mass(uVals),
		FocalMassBiased:  mass(bVals),
	}, nil
}

// Render prints the three histograms side by side, one row per bin.
func (r *Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — base data vs uniform vs biased impression (%d base rows, n=%d)\n",
		r.BaseRows, r.SampleSize)
	for _, fa := range r.Attrs {
		fmt.Fprintf(&b, "\n[%s] focal mass: base=%.3f uniform=%.3f biased=%.3f\n",
			fa.Attr, fa.FocalMassBase, fa.FocalMassUniform, fa.FocalMassBiased)
		fmt.Fprintf(&b, "%10s %12s %10s %10s\n", fa.Attr, "base", "uniform", "biased")
		for i := range fa.Base.Bins {
			fmt.Fprintf(&b, "%10.2f %12d %10d %10d\n",
				fa.Base.BinLow(i), fa.Base.Bins[i].Count,
				fa.Uniform.Bins[i].Count, fa.Biased.Bins[i].Count)
		}
	}
	return b.String()
}
