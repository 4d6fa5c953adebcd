package skyserver

import (
	"math"
	"testing"

	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Objects: -1, RaMin: 0, RaMax: 1, DecMin: 0, DecMax: 1}); err == nil {
		t.Fatal("negative objects accepted")
	}
	if _, err := New(Config{Objects: 1, RaMin: 1, RaMax: 1, DecMin: 0, DecMax: 1}); err == nil {
		t.Fatal("empty sky window accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig(20000)
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.PhotoObjAll.Len() != 20000 {
		t.Fatalf("fact rows = %d", db.PhotoObjAll.Len())
	}
	if db.Field.Len() != cfg.Fields {
		t.Fatalf("field rows = %d", db.Field.Len())
	}
	if db.PhotoTag.Len() != 20000 {
		t.Fatalf("tag rows = %d", db.PhotoTag.Len())
	}
	names := db.Catalog.Names()
	if len(names) != 3 {
		t.Fatalf("catalog tables = %v", names)
	}
}

func TestPositionsInWindow(t *testing.T) {
	cfg := DefaultConfig(10000)
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := db.PhotoObjAll.Float64("ra")
	dec, _ := db.PhotoObjAll.Float64("dec")
	for i := range ra {
		if ra[i] < cfg.RaMin || ra[i] >= cfg.RaMax {
			t.Fatalf("ra[%d] = %v outside window", i, ra[i])
		}
		if dec[i] < cfg.DecMin || dec[i] >= cfg.DecMax {
			t.Fatalf("dec[%d] = %v outside window", i, dec[i])
		}
	}
}

func TestClusteringVisible(t *testing.T) {
	cfg := DefaultConfig(40000)
	db, _ := Generate(cfg)
	ra, _ := db.PhotoObjAll.Float64("ra")
	// Density near cluster 1 (165±6) must exceed uniform background.
	near, far := 0, 0
	for _, v := range ra {
		if math.Abs(v-165) < 6 {
			near++
		}
		if math.Abs(v-135) < 6 { // empty background region
			far++
		}
	}
	if near < far*2 {
		t.Fatalf("clustering invisible: near=%d far=%d", near, far)
	}
}

func TestTypeSkew(t *testing.T) {
	db, _ := Generate(DefaultConfig(30000))
	res, err := engine.RunOnOpts(db.PhotoObjAll, engine.Query{
		Table:   "PhotoObjAll",
		GroupBy: "type",
		Aggs:    []engine.AggSpec{{Func: engine.Count, Alias: "n"}},
	}, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]float64{}
	keyCol := res.Table.MustCol("type")
	ns, _ := res.Float64Col("n")
	for i := 0; i < res.Len(); i++ {
		counts[keyCol.ValueString(int32(i))] = ns[i]
	}
	if counts["GALAXY"] < counts["STAR"] || counts["STAR"] < counts["QSO"] {
		t.Fatalf("type skew wrong: %v", counts)
	}
	frac := counts["GALAXY"] / 30000
	if frac < 0.5 || frac > 0.6 {
		t.Fatalf("galaxy fraction = %v", frac)
	}
}

func TestObjIDsUniqueAndDense(t *testing.T) {
	db, _ := Generate(DefaultConfig(5000))
	ids, _ := db.PhotoObjAll.Int64("objID")
	seen := make(map[int64]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate objID %d", id)
		}
		seen[id] = true
	}
	if !seen[0] || !seen[4999] {
		t.Fatal("objIDs not dense from 0")
	}
}

func TestFKIntegrity(t *testing.T) {
	db, _ := Generate(DefaultConfig(5000))
	// Field rows are keyed 0..Fields-1, so every fact fieldID below
	// Fields has exactly one dimension row.
	fieldKeys, _ := db.Field.Int64("fieldID")
	if len(fieldKeys) != DefaultConfig(0).Fields {
		t.Fatalf("Field rows = %d", len(fieldKeys))
	}
	for i, k := range fieldKeys {
		if k != int64(i) {
			t.Fatalf("Field row %d keyed %d", i, k)
		}
	}
	fieldIDs, _ := db.PhotoObjAll.Int64("fieldID")
	for i, k := range fieldIDs {
		if k < 0 || k >= int64(len(fieldKeys)) {
			t.Fatalf("object %d references missing field %d", i, k)
		}
	}
	objIDs, _ := db.PhotoObjAll.Int64("objID")
	tagIDs, _ := db.PhotoTag.Int64("objID")
	if len(tagIDs) != len(objIDs) {
		t.Fatalf("PhotoTag rows = %d, PhotoObjAll rows = %d", len(tagIDs), len(objIDs))
	}
	for i := range objIDs {
		if tagIDs[i] != objIDs[i] {
			t.Fatalf("row %d: PhotoTag objID %d != PhotoObjAll objID %d", i, tagIDs[i], objIDs[i])
		}
	}
}

func TestMagnitudesSane(t *testing.T) {
	db, _ := Generate(DefaultConfig(10000))
	r, _ := db.PhotoObjAll.Float64("r")
	var sum float64
	for _, v := range r {
		if v < 12 || v > 24 {
			t.Fatalf("r magnitude %v outside survey limits", v)
		}
		sum += v
	}
	if mean := sum / float64(len(r)); math.Abs(mean-18) > 0.5 {
		t.Fatalf("mean r = %v", mean)
	}
}

func TestGeneratorStreamsBatches(t *testing.T) {
	db, err := New(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	gen := db.Generator(xrand.New(5))
	b1 := gen.NextBatch(100)
	b2 := gen.NextBatch(100)
	if err := db.PhotoObjAll.AppendBatch(b1); err != nil {
		t.Fatal(err)
	}
	if err := db.PhotoObjAll.AppendBatch(b2); err != nil {
		t.Fatal(err)
	}
	// objIDs continue across batches; mjd advances per batch.
	if b1[0][0].(int64) != 0 || b2[0][0].(int64) != 100 {
		t.Fatalf("objID continuity broken: %v, %v", b1[0][0], b2[0][0])
	}
	if b2[0][10].(int64) != b1[0][10].(int64)+1 {
		t.Fatalf("mjd did not advance: %v -> %v", b1[0][10], b2[0][10])
	}
}

func TestPaperQueryRuns(t *testing.T) {
	db, _ := Generate(DefaultConfig(20000))
	q := PaperQuery(165, 20, 3)
	res, err := engine.RunOnOpts(db.PhotoObjAll, q, engine.DefaultExecOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("cone at cluster centre returned nothing")
	}
	// All results are galaxies within the cone.
	typeCol := res.Table.MustCol("type")
	ra, _ := res.Float64Col("ra")
	dec, _ := res.Float64Col("dec")
	for i := 0; i < res.Len(); i++ {
		if typeCol.ValueString(int32(i)) != "GALAXY" {
			t.Fatal("non-galaxy in Galaxy view result")
		}
		if expr.AngularSeparation(165, 20, ra[i], dec[i]) > 3 {
			t.Fatal("result outside cone")
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := Generate(DefaultConfig(1000))
	b, _ := Generate(DefaultConfig(1000))
	raA, _ := a.PhotoObjAll.Float64("ra")
	raB, _ := b.PhotoObjAll.Float64("ra")
	for i := range raA {
		if raA[i] != raB[i] {
			t.Fatalf("generation not deterministic at row %d", i)
		}
	}
}
