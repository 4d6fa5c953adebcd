// Package skyserver is the synthetic stand-in for the Sloan Digital Sky
// Survey warehouse of §2: a PhotoObjAll fact table with clustered sky
// positions and photometric magnitudes, dimension tables the fact rows
// reference by foreign key, the Galaxy view, and the fGetNearbyObjEq
// cone search. The real 4 TB SkyServer is not redistributable; the
// generator reproduces the statistical properties SciBORQ's evaluation
// depends on (multi-modal positions, type skew) at laptop scale.
package skyserver

import (
	"fmt"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/xrand"
)

// Object types with SDSS-like skew: galaxies dominate, then stars.
var objectTypes = []struct {
	name string
	frac float64
}{
	{"GALAXY", 0.55},
	{"STAR", 0.35},
	{"QSO", 0.07},
	{"UNKNOWN", 0.03},
}

// Cluster is a galaxy cluster on the synthetic sky: objects concentrate
// around (Ra, Dec) with dispersion Sigma.
type Cluster struct {
	Ra, Dec float64
	Sigma   float64
	Weight  float64
}

// Config controls the synthetic sky.
type Config struct {
	// Objects is the PhotoObjAll row count.
	Objects int
	// Fields is the number of Field dimension rows; each object
	// references one field.
	Fields int
	// Clusters places galaxy clusters; objects fall into a cluster with
	// probability ClusterFrac, else uniform background.
	Clusters    []Cluster
	ClusterFrac float64
	// RaMin..DecMax bound the surveyed sky window.
	RaMin, RaMax   float64
	DecMin, DecMax float64
	Seed           uint64
}

// DefaultConfig returns the window used throughout the reproduction:
// ra ∈ [120, 240), dec ∈ [0, 60) — the ranges of the paper's Figures 4
// and 7 — with two galaxy clusters.
func DefaultConfig(objects int) Config {
	return Config{
		Objects: objects,
		Fields:  256,
		Clusters: []Cluster{
			{Ra: 165, Dec: 20, Sigma: 6, Weight: 0.6},
			{Ra: 205, Dec: 40, Sigma: 4, Weight: 0.4},
		},
		ClusterFrac: 0.35,
		RaMin:       120, RaMax: 240,
		DecMin: 0, DecMax: 60,
		Seed: 2011, // CIDR 2011
	}
}

// Database bundles the generated catalogue.
type Database struct {
	Catalog *table.Catalog
	// PhotoObjAll is the fact table.
	PhotoObjAll *table.Table
	// Field and PhotoTag are dimension tables.
	Field    *table.Table
	PhotoTag *table.Table
	cfg      Config
}

// PhotoObjSchema returns the fact-table schema.
func PhotoObjSchema() table.Schema {
	return table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "fieldID", Type: column.Int64},
		{Name: "ra", Type: column.Float64},
		{Name: "dec", Type: column.Float64},
		{Name: "u", Type: column.Float64},
		{Name: "g", Type: column.Float64},
		{Name: "r", Type: column.Float64},
		{Name: "i", Type: column.Float64},
		{Name: "z", Type: column.Float64},
		{Name: "type", Type: column.String},
		{Name: "mjd", Type: column.Int64}, // observation date
		{Name: "clean", Type: column.Bool},
	}
}

// FieldSchema returns the Field dimension schema.
func FieldSchema() table.Schema {
	return table.Schema{
		{Name: "fieldID", Type: column.Int64},
		{Name: "run", Type: column.Int64},
		{Name: "camcol", Type: column.Int64},
		{Name: "quality", Type: column.Float64},
		{Name: "seeing", Type: column.Float64},
	}
}

// PhotoTagSchema returns the PhotoTag dimension schema (a thin
// "tag" projection keyed by objID, as in SDSS).
func PhotoTagSchema() table.Schema {
	return table.Schema{
		{Name: "objID", Type: column.Int64},
		{Name: "petroRad", Type: column.Float64},
		{Name: "extinction", Type: column.Float64},
	}
}

// New creates the empty table set for cfg.
func New(cfg Config) (*Database, error) {
	if cfg.Objects < 0 {
		return nil, fmt.Errorf("skyserver: negative object count %d", cfg.Objects)
	}
	if cfg.Fields <= 0 {
		cfg.Fields = 256
	}
	if !(cfg.RaMax > cfg.RaMin) || !(cfg.DecMax > cfg.DecMin) {
		return nil, fmt.Errorf("skyserver: empty sky window")
	}
	db := &Database{
		Catalog:     table.NewCatalog(),
		PhotoObjAll: table.MustNew("PhotoObjAll", PhotoObjSchema()),
		Field:       table.MustNew("Field", FieldSchema()),
		PhotoTag:    table.MustNew("PhotoTag", PhotoTagSchema()),
		cfg:         cfg,
	}
	for _, t := range []*table.Table{db.PhotoObjAll, db.Field, db.PhotoTag} {
		if err := db.Catalog.Add(t); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Generate creates the full catalogue in one shot.
func Generate(cfg Config) (*Database, error) {
	db, err := New(cfg)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	if err := db.generateFields(rng); err != nil {
		return nil, err
	}
	gen := db.Generator(rng.Split())
	rows := gen.NextBatch(cfg.Objects)
	if err := db.PhotoObjAll.AppendBatch(rows); err != nil {
		return nil, err
	}
	if err := db.appendTags(rows, rng.Split()); err != nil {
		return nil, err
	}
	return db, nil
}

// generateFields fills the Field dimension.
func (db *Database) generateFields(rng *xrand.RNG) error {
	rows := make([]table.Row, 0, db.cfg.Fields)
	for i := 0; i < db.cfg.Fields; i++ {
		rows = append(rows, table.Row{
			int64(i),
			int64(1000 + i/8),
			int64(1 + i%6),
			0.5 + rng.Float64()*0.5, // quality
			0.8 + rng.Float64()*1.2, // seeing, arcsec
		})
	}
	return db.Field.AppendBatch(rows)
}

// appendTags fills PhotoTag for the given fact rows.
func (db *Database) appendTags(objRows []table.Row, rng *xrand.RNG) error {
	rows := make([]table.Row, 0, len(objRows))
	for _, r := range objRows {
		rows = append(rows, table.Row{
			r[0],                     // objID
			0.5 + rng.ExpFloat64()*2, // Petrosian radius
			rng.Float64() * 0.3,      // extinction
		})
	}
	return db.PhotoTag.AppendBatch(rows)
}

// Generator streams fact rows; the loader uses it to simulate nightly
// ingests (§3.3).
type Generator struct {
	db   *Database
	rng  *xrand.RNG
	next int64
	mjd  int64
}

// Generator returns a row generator for the database.
func (db *Database) Generator(rng *xrand.RNG) *Generator {
	if rng == nil {
		rng = xrand.New(db.cfg.Seed + 1)
	}
	return &Generator{db: db, rng: rng, next: int64(db.PhotoObjAll.Len()), mjd: 55200}
}

// NextBatch produces n fact rows (one "nightly load"); each batch
// advances the observation date.
func (g *Generator) NextBatch(n int) []table.Row {
	rows := make([]table.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, g.nextRow())
	}
	g.mjd++ // one night per batch
	return rows
}

// nextRow generates one object.
func (g *Generator) nextRow() table.Row {
	cfg := g.db.cfg
	var ra, dec float64
	if len(cfg.Clusters) > 0 && g.rng.Float64() < cfg.ClusterFrac {
		c := g.pickCluster()
		for {
			ra = c.Ra + g.rng.NormFloat64()*c.Sigma
			dec = c.Dec + g.rng.NormFloat64()*c.Sigma
			if ra >= cfg.RaMin && ra < cfg.RaMax && dec >= cfg.DecMin && dec < cfg.DecMax {
				break
			}
		}
	} else {
		ra = cfg.RaMin + g.rng.Float64()*(cfg.RaMax-cfg.RaMin)
		dec = cfg.DecMin + g.rng.Float64()*(cfg.DecMax-cfg.DecMin)
	}
	typ := g.pickType()
	// Magnitudes: r around 18 ± 2 truncated to the survey limits,
	// with colour offsets per band.
	r := 18 + g.rng.NormFloat64()*2
	if r < 12 {
		r = 12
	}
	if r > 24 {
		r = 24
	}
	gMag := r + 0.6 + g.rng.NormFloat64()*0.3
	uMag := gMag + 1.2 + g.rng.NormFloat64()*0.5
	iMag := r - 0.3 + g.rng.NormFloat64()*0.2
	zMag := iMag - 0.2 + g.rng.NormFloat64()*0.2
	row := table.Row{
		g.next,
		int64(g.rng.Intn(cfg.Fields)),
		ra, dec,
		uMag, gMag, r, iMag, zMag,
		typ,
		g.mjd,
		g.rng.Float64() < 0.9,
	}
	g.next++
	return row
}

func (g *Generator) pickCluster() Cluster {
	var total float64
	for _, c := range g.db.cfg.Clusters {
		total += c.Weight
	}
	u := g.rng.Float64() * total
	for _, c := range g.db.cfg.Clusters {
		if u < c.Weight {
			return c
		}
		u -= c.Weight
	}
	return g.db.cfg.Clusters[len(g.db.cfg.Clusters)-1]
}

func (g *Generator) pickType() string {
	u := g.rng.Float64()
	for _, t := range objectTypes {
		if u < t.frac {
			return t.name
		}
		u -= t.frac
	}
	return objectTypes[len(objectTypes)-1].name
}

// GalaxyView returns the predicate implementing the paper's Galaxy view:
// PhotoObjAll restricted to galaxies with clean photometry.
func GalaxyView() expr.Predicate {
	return expr.StrEq{Col: "type", Value: "GALAXY"}
}

// FGetNearbyObjEq builds the paper's cone-search predicate over the
// fact table's positional columns.
func FGetNearbyObjEq(ra, dec, radius float64) expr.Cone {
	return expr.Cone{RaCol: "ra", DecCol: "dec", Ra0: ra, Dec0: dec, Radius: radius}
}

// PaperQuery is the Figure-1 query: galaxies near (ra, dec).
func PaperQuery(ra, dec, radius float64) engine.Query {
	return engine.Query{
		Table:  "PhotoObjAll",
		Where:  expr.And{L: GalaxyView(), R: FGetNearbyObjEq(ra, dec, radius)},
		Select: []string{"objID", "ra", "dec", "r", "type"},
	}
}
