package sciborq

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sciborq/internal/skyserver"
)

// The end-to-end SQL grid: {Uniform, LastSeen, Biased} × {WITHIN ERROR,
// WITHIN TIME (tight and generous), both, neither} × {COUNT, SUM, AVG,
// MIN, MAX, STDDEV}, asserting through DB.Exec that
//
//   - bounded answers fall inside their reported confidence intervals
//     against the exact answers,
//   - BoundMet / Layer / Exact are coherent with each other,
//   - results are bit-identical at workers 1 and 4.
//
// Layer picks are deterministic by construction: the tight budget's
// MaxRowsWithin is 0 (smallest-layer fallback regardless of the
// learned per-row rate) and the generous budget fits the base table at
// any plausible learned rate — so the grid is stable run to run even
// though WITHIN TIME feeds latencies back into the cost model.

const (
	gridObjects = 20_000
	gridWhere   = "WHERE ra BETWEEN 150 AND 210"
	tightTime   = "1us"
	looseTime   = "5s"
)

// gridDB is openSky with explicit parallelism, so the workers-1 and
// workers-4 databases are built from identical data, seeds and layer
// sizes.
func gridDB(t *testing.T, policy Policy, workers int) *DB {
	t.Helper()
	db := Open(testCost(), WithSeed(42), WithParallelism(workers))
	sky, err := skyserver.Generate(skyserver.DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachTable(sky.PhotoObjAll); err != nil {
		t.Fatal(err)
	}
	if err := db.TrackWorkload("PhotoObjAll",
		Attr{Name: "ra", Min: 120, Max: 240, Beta: 30},
		Attr{Name: "dec", Min: 0, Max: 60, Beta: 30},
	); err != nil {
		t.Fatal(err)
	}
	attrs := []string{"ra", "dec"}
	if policy != Biased {
		attrs = nil
	}
	if err := db.BuildImpressions("PhotoObjAll", ImpressionConfig{
		Sizes:  []int{gridObjects / 10, gridObjects / 100},
		Policy: policy,
		Attrs:  attrs,
		K:      500, D: 1000,
	}); err != nil {
		t.Fatal(err)
	}
	gen := sky.Generator(nil)
	for loaded := 0; loaded < gridObjects; loaded += 5000 {
		if err := db.Load("PhotoObjAll", gen.NextBatch(5000)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// gridAggs names the aggregate list shared by every cell; the aliases
// double as result lookups.
var gridAggs = []struct{ sql, alias string }{
	{"COUNT(*) AS c", "c"},
	{"SUM(r) AS s", "s"},
	{"AVG(r) AS a", "a"},
	{"MIN(r) AS mn", "mn"},
	{"MAX(r) AS mx", "mx"},
	{"STDDEV(r) AS sd", "sd"},
}

// gridBounds names the bound variants of the grid.
var gridBounds = []struct{ name, clause string }{
	{"neither", ""},
	{"error", "WITHIN ERROR 0.15 CONFIDENCE 0.99"},
	{"time-tight", "WITHIN TIME " + tightTime},
	{"time-loose", "WITHIN TIME " + looseTime},
	{"both", "WITHIN ERROR 0.15 CONFIDENCE 0.99 WITHIN TIME " + tightTime},
}

func gridSQL(agg, clause string) string {
	sql := fmt.Sprintf("SELECT %s FROM PhotoObjAll %s", agg, gridWhere)
	if clause != "" {
		sql += " " + clause
	}
	return sql
}

// checkCoherence asserts the answer's bookkeeping is self-consistent.
func checkCoherence(t *testing.T, cell string, res *Result) {
	t.Helper()
	b := res.Bounded
	if b == nil {
		t.Fatalf("%s: no bounded answer", cell)
	}
	if len(b.Trail) == 0 {
		t.Errorf("%s: empty trail", cell)
	}
	if b.Exact != strings.HasPrefix(b.Layer, "base:") {
		t.Errorf("%s: Exact=%t but Layer=%q", cell, b.Exact, b.Layer)
	}
	if b.Layer != b.Trail[len(b.Trail)-1].Layer {
		t.Errorf("%s: Layer %q is not the last trail entry %q", cell, b.Layer, b.Trail[len(b.Trail)-1].Layer)
	}
	for _, e := range b.Estimates {
		if e.Exact && e.RelError() != 0 {
			t.Errorf("%s: exact estimate %s with nonzero error", cell, e.Spec.Name())
		}
		if b.Exact != e.Exact {
			t.Errorf("%s: answer Exact=%t, estimate %s Exact=%t", cell, b.Exact, e.Spec.Name(), e.Exact)
		}
	}
}

// TestSQLGrid runs the full grid on workers-1 and workers-4 databases
// per policy and cross-checks every cell.
func TestSQLGrid(t *testing.T) {
	for _, policy := range []Policy{Uniform, LastSeen, Biased} {
		t.Run(policy.String(), func(t *testing.T) {
			db1 := gridDB(t, policy, 1)
			db4 := gridDB(t, policy, 4)

			// Exact references, one per aggregate.
			exact := map[string]float64{}
			for _, agg := range gridAggs {
				res, err := db1.Exec(gridSQL(agg.sql, ""))
				if err != nil {
					t.Fatal(err)
				}
				v, err := res.Scalar(agg.alias)
				if err != nil {
					t.Fatal(err)
				}
				exact[agg.alias] = v
			}

			for _, bound := range gridBounds {
				for _, agg := range gridAggs {
					cell := fmt.Sprintf("%s/%s/%s", policy, bound.name, agg.alias)
					sql := gridSQL(agg.sql, bound.clause)
					r1, err := db1.Exec(sql)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					r4, err := db4.Exec(sql)
					if err != nil {
						t.Fatalf("%s: workers-4: %v", cell, err)
					}
					if bound.clause == "" {
						// Exact path: bit-identical scalars.
						v1, _ := r1.Scalar(agg.alias)
						v4, _ := r4.Scalar(agg.alias)
						if v1 != v4 {
							t.Errorf("%s: workers 1/4 differ: %v vs %v", cell, v1, v4)
						}
						if v1 != exact[agg.alias] {
							t.Errorf("%s: %v, want exact %v", cell, v1, exact[agg.alias])
						}
						continue
					}
					checkCoherence(t, cell, r1)
					checkCoherence(t, cell, r4)

					// Workers 1 vs 4: identical layers and bit-identical
					// estimates (intervals included).
					if r1.Bounded.Layer != r4.Bounded.Layer {
						t.Errorf("%s: layer %q vs %q at workers 1/4", cell, r1.Bounded.Layer, r4.Bounded.Layer)
					}
					if r1.Bounded.BoundMet != r4.Bounded.BoundMet && bound.name != "time-tight" && bound.name != "both" {
						// Tight-budget BoundMet compares wall clock to 1us
						// and may legitimately differ; every other variant
						// must agree.
						t.Errorf("%s: BoundMet %t vs %t", cell, r1.Bounded.BoundMet, r4.Bounded.BoundMet)
					}
					e1, e4 := r1.Bounded.Estimates, r4.Bounded.Estimates
					if len(e1) != 1 || len(e4) != 1 {
						t.Fatalf("%s: estimate counts %d/%d", cell, len(e1), len(e4))
					}
					if e1[0].Value() != e4[0].Value() || e1[0].Interval.HalfWidth != e4[0].Interval.HalfWidth {
						t.Errorf("%s: workers 1/4 estimates differ: %v±%v vs %v±%v", cell,
							e1[0].Value(), e1[0].Interval.HalfWidth, e4[0].Value(), e4[0].Interval.HalfWidth)
					}

					// Bounded answers cover the exact value.
					est := e1[0]
					want := exact[agg.alias]
					if est.Exact {
						if est.Value() != want {
							t.Errorf("%s: exact answer %v, want %v", cell, est.Value(), want)
						}
					} else if hw := est.Interval.HalfWidth; !math.IsInf(hw, 1) {
						if diff := math.Abs(est.Value() - want); diff > hw {
							t.Errorf("%s: |%v - %v| = %v outside ±%v (layer %s)",
								cell, est.Value(), want, diff, hw, r1.Bounded.Layer)
						}
					}

					// Bound-specific coherence.
					switch bound.name {
					case "error":
						if !r1.Bounded.BoundMet {
							t.Errorf("%s: error bound not met despite exact base fallback", cell)
						}
						for _, e := range r1.Bounded.Estimates {
							if e.RelError() > 0.15 {
								t.Errorf("%s: BoundMet with rel error %v > 0.15", cell, e.RelError())
							}
						}
					case "time-loose":
						if !r1.Bounded.Exact {
							t.Errorf("%s: generous budget did not pick the base table (layer %s)", cell, r1.Bounded.Layer)
						}
					case "time-tight":
						if r1.Bounded.Exact {
							t.Errorf("%s: 1us budget picked the base table", cell)
						}
						if r1.Bounded.Trail[0].Rows != gridObjects/100 {
							t.Errorf("%s: tight budget ran on %d rows, want smallest layer %d",
								cell, r1.Bounded.Trail[0].Rows, gridObjects/100)
						}
					}
				}
			}

			// The hierarchy was never materialised by any of the above:
			// bounded executions run selection scans over base snapshots.
			for _, im := range db1.Hierarchy("PhotoObjAll").Layers() {
				if im.Len() == 0 {
					t.Errorf("layer %s is empty", im.Name())
				}
			}
		})
	}
}

// TestSQLGridAllAggregatesOneStatement runs the whole aggregate list in
// one bounded statement per bound variant — the multi-aggregate shape
// of the paper's example queries — and checks escalation lands on base
// data whenever an unboundable aggregate (MIN/MAX/STDDEV) rides along
// with an error bound.
func TestSQLGridAllAggregatesOneStatement(t *testing.T) {
	db := gridDB(t, Uniform, 4)
	var aggList []string
	for _, a := range gridAggs {
		aggList = append(aggList, a.sql)
	}
	sql := fmt.Sprintf("SELECT %s FROM PhotoObjAll %s WITHIN ERROR 0.15 CONFIDENCE 0.99",
		strings.Join(aggList, ", "), gridWhere)
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounded == nil || !res.Bounded.Exact {
		t.Fatalf("error-bounded MIN/MAX/STDDEV must escalate to base, got layer %q", res.Bounded.Layer)
	}
	if !res.Bounded.BoundMet {
		t.Error("bound not met on exact data")
	}
	ref, err := db.Exec(fmt.Sprintf("SELECT %s FROM PhotoObjAll %s", strings.Join(aggList, ", "), gridWhere))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range gridAggs {
		got, err := res.Scalar(a.alias)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Scalar(a.alias)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: %v, want %v", a.alias, got, want)
		}
	}
}
