// Adaptive: impressions follow the scientist's shifting attention
// (§3.1). The workload starts on one sky region; halfway through the
// observation campaign it moves to another. The biased impression
// re-focuses within a few nightly loads, and focal query precision
// recovers with it.
package main

import (
	"fmt"
	"log"
	"math"
	"strings"

	"sciborq"
	"sciborq/internal/skyserver"
	"sciborq/internal/xrand"
)

func main() {
	const (
		nights       = 30
		rowsPerNight = 10_000
		shiftAt      = 15
	)
	regionA := [2]float64{150, 15} // early-campaign focus (ra, dec)
	regionB := [2]float64{215, 45} // late-campaign focus

	cfg := skyserver.DefaultConfig(0)
	sky, err := skyserver.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	db := sciborq.Open(sciborq.WithSeed(5))
	fact, err := sky.Catalog.Get("PhotoObjAll")
	if err != nil {
		log.Fatal(err)
	}
	if err := db.AttachTable(fact); err != nil {
		log.Fatal(err)
	}
	if err := db.TrackWorkload("PhotoObjAll",
		sciborq.Attr{Name: "ra", Min: cfg.RaMin, Max: cfg.RaMax, Beta: 30},
	); err != nil {
		log.Fatal(err)
	}
	if err := db.BuildImpressions("PhotoObjAll", sciborq.ImpressionConfig{
		Sizes:  []int{8_000, 800},
		Policy: sciborq.Biased,
		Attrs:  []string{"ra"},
	}); err != nil {
		log.Fatal(err)
	}

	rng := xrand.New(77)
	gen := sky.Generator(nil)
	fmt.Printf("%6s %8s %22s\n", "night", "focus", "impression near focus")
	for night := 0; night < nights; night++ {
		focus := regionA
		if night >= shiftAt {
			focus = regionB
		}
		if night == shiftAt {
			// The scientist moved on: age out the stale interest so the
			// new focal point can take over quickly (§3.1 "fast
			// reflexes").
			db.Logger("PhotoObjAll").Decay(0.1)
		}
		// Tonight's exploration: 25 cone queries around the focus.
		for i := 0; i < 25; i++ {
			q := fmt.Sprintf(
				"SELECT COUNT(*) FROM PhotoObjAll WHERE fGetNearbyObjEq(%.2f, %.2f, 2)",
				focus[0]+rng.NormFloat64()*3, focus[1]+rng.NormFloat64()*3)
			if _, err := db.Exec(q); err != nil {
				log.Fatal(err)
			}
		}
		// Tonight's ingest; the biased impression adapts in the load path.
		if err := db.Load("PhotoObjAll", gen.NextBatch(rowsPerNight)); err != nil {
			log.Fatal(err)
		}
		frac, err := focalFraction(db, focus[0])
		if err != nil {
			log.Fatal(err)
		}
		label := "A"
		if night >= shiftAt {
			label = "B"
		}
		bar := strings.Repeat("#", int(frac*60))
		marker := ""
		if night == shiftAt {
			marker = "  <- focus shifts"
		}
		fmt.Printf("%6d %8s %6.1f%% %s%s\n", night, label, frac*100, bar, marker)
	}
}

// focalFraction reports the share of the top impression layer within
// ±10 degrees of the given ra centre.
func focalFraction(db *sciborq.DB, centre float64) (float64, error) {
	top := db.Hierarchy("PhotoObjAll").Layers()[0]
	ra, err := top.Base().Float64("ra")
	if err != nil {
		return 0, err
	}
	pos := top.View().Positions
	if len(pos) == 0 {
		return 0, nil
	}
	in := 0
	for _, p := range pos {
		if math.Abs(ra[p]-centre) < 10 {
			in++
		}
	}
	return float64(in) / float64(len(pos)), nil
}
