package recycler

import (
	"reflect"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

var seqOpts = engine.ExecOptions{Parallelism: 1}

func testTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.MustNew("t", table.Schema{{Name: "x", Type: column.Float64}})
	for i := 0; i < 10; i++ {
		if err := tb.AppendRow(table.Row{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func ge(col string, v float64) expr.Predicate {
	return expr.Cmp{Op: vec.Ge, Left: expr.ColRef{Name: col}, Right: v}
}

func lt(col string, v float64) expr.Predicate {
	return expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: col}, Right: v}
}

// filter evaluates pred over all rows of t through r the way Exec does:
// over a fresh snapshot.
func filter(r *Recycler, t *table.Table, pred expr.Predicate, opts engine.ExecOptions) (vec.Sel, engine.ScanStats, error) {
	return r.Filter(t.Snapshot(), pred, opts)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := New(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestHitAndMiss(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	pred := ge("x", 5)
	s1, scan1, err := filter(r, tb, pred, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if scan1.ScannedRows != tb.Len() {
		t.Fatalf("cold scan touched %d rows, want %d", scan1.ScannedRows, tb.Len())
	}
	s2, scan2, err := filter(r, tb, pred, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if scan2.ScannedRows != 0 {
		t.Fatalf("hit scanned %d rows, want 0", scan2.ScannedRows)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("cached selection differs")
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	if st.Bytes != int64(len(s1))*4 {
		t.Fatalf("bytes = %d, want %d", st.Bytes, len(s1)*4)
	}
}

func TestCommutedPredicateHits(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	a, b := ge("x", 2), lt("x", 7)
	if _, _, err := filter(r, tb, expr.And{L: a, R: b}, seqOpts); err != nil {
		t.Fatal(err)
	}
	sel, _, err := filter(r, tb, expr.And{L: b, R: a}, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("commuted AND did not share an entry: %+v", st)
	}
	// Both orders describe 2 <= x < 7 over x = 0..9.
	if want := (vec.Sel{2, 3, 4, 5, 6}); !reflect.DeepEqual(sel, want) {
		t.Fatalf("sel = %v, want %v", sel, want)
	}
	// Redundant bounds normalise away: adding a looser x < 9 on top of
	// x < 7 canonicalises to the same entry — a third lookup, second hit.
	redundant := expr.And{L: expr.And{L: a, R: b}, R: lt("x", 9)}
	if _, _, err := filter(r, tb, redundant, seqOpts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Entries != 1 || st.Hits != 2 {
		t.Fatalf("redundant bound did not normalise onto the entry: %+v", st)
	}
}

func TestAppendInvalidates(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	pred := ge("x", 5)
	s1, _, _ := filter(r, tb, pred, seqOpts)
	if err := tb.AppendRow(table.Row{50.0}); err != nil {
		t.Fatal(err)
	}
	s2, _, _ := filter(r, tb, pred, seqOpts)
	if len(s2) != len(s1)+1 {
		t.Fatalf("append not reflected: %v -> %v", s1, s2)
	}
	if r.Stats().Hits != 0 {
		t.Fatal("stale entry served after append")
	}
}

// TestVersionKeysNeverAliasSameLength is the aliasing regression the
// seed key discipline allowed: the old cache keyed hits by
// (name, length, predicate) read off the live table, so two distinct
// same-name same-length tables — a truncate/rebuild, a re-materialised
// sample — could serve each other's selections. ID+version keys cannot.
func TestVersionKeysNeverAliasSameLength(t *testing.T) {
	build := func(vals ...float64) *table.Table {
		tb := table.MustNew("rebuilt", table.Schema{{Name: "x", Type: column.Float64}})
		for _, v := range vals {
			if err := tb.AppendRow(table.Row{v}); err != nil {
				t.Fatal(err)
			}
		}
		return tb
	}
	// Same name, same length, different content.
	t1 := build(1, 2, 3, 4)
	t2 := build(9, 9, 9, 9)
	if t1.Name() != t2.Name() || t1.Len() != t2.Len() {
		t.Fatal("fixture must collide on name and length")
	}
	r, _ := New(1 << 20)
	pred := ge("x", 5)
	s1, _, _ := filter(r, t1, pred, seqOpts)
	s2, _, _ := filter(r, t2, pred, seqOpts)
	if len(s1) != 0 || len(s2) != 4 {
		t.Fatalf("selections aliased: %v vs %v", s1, s2)
	}
	if st := r.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("same-name same-length tables shared an entry: %+v", st)
	}
	// Same logical table, mutation that lands back on the same length:
	// a failed batch rolls back to the old row count but bumps the
	// version, so the cache conservatively refuses the old entry.
	v0 := t1.Version()
	if err := t1.AppendBatch([]table.Row{{7.0}, {"not a float"}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if t1.Len() != 4 {
		t.Fatalf("rollback left %d rows", t1.Len())
	}
	if t1.Version() == v0 {
		t.Fatal("rollback did not bump the version")
	}
	if _, _, err := filter(r, t1, pred, seqOpts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 0 {
		t.Fatalf("rolled-back table served a pre-rollback selection: %+v", st)
	}
}

func TestSubsumptionRefinement(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	base := ge("x", 2) // matches 2..9
	refined := expr.And{L: base, R: lt("x", 5)}
	if _, _, err := filter(r, tb, base, seqOpts); err != nil {
		t.Fatal(err)
	}
	sel, scan, err := filter(r, tb, refined, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if want := (vec.Sel{2, 3, 4}); !reflect.DeepEqual(sel, want) {
		t.Fatalf("refined sel = %v, want %v", sel, want)
	}
	st := r.Stats()
	if st.SubsumedHits != 1 || st.Misses != 1 {
		t.Fatalf("refinement not subsumed: %+v", st)
	}
	// The residual ran over the 8 cached positions, not the 10-row table.
	if scan.ScannedRows != 8 {
		t.Fatalf("residual scanned %d rows, want 8 (|cached sel|)", scan.ScannedRows)
	}
	// The refined result was itself admitted: repeating it is an exact hit.
	if _, _, err := filter(r, tb, refined, seqOpts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 1 {
		t.Fatalf("refined entry not cached: %+v", st)
	}
}

// TestSubsumptionByImplication exercises the interval-containment arm:
// a narrower BETWEEN refines a cached wider one even though no conjunct
// key matches verbatim.
func TestSubsumptionByImplication(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	wide := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 1, Hi: 8}
	narrow := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 3, Hi: 4}
	if _, _, err := filter(r, tb, wide, seqOpts); err != nil {
		t.Fatal(err)
	}
	sel, scan, err := filter(r, tb, narrow, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if want := (vec.Sel{3, 4}); !reflect.DeepEqual(sel, want) {
		t.Fatalf("sel = %v, want %v", sel, want)
	}
	if st := r.Stats(); st.SubsumedHits != 1 {
		t.Fatalf("implication not used: %+v", st)
	}
	if scan.ScannedRows > 8 {
		t.Fatalf("residual scanned %d rows, want <= |cached sel| = 8", scan.ScannedRows)
	}
	// The reverse direction must NOT subsume: widening re-scans.
	wider := expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: 0, Hi: 9}
	if _, _, err := filter(r, tb, wider, seqOpts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.SubsumedHits != 1 || st.Misses != 2 {
		t.Fatalf("widened query wrongly subsumed: %+v", st)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	tb := testTable(t)
	// Five 3-row selections (12 bytes each) against a 48-byte budget:
	// four fit exactly, the fifth forces an LRU eviction by bytes. Each
	// stays under the 48/4 = 12-byte admission bound.
	r, _ := New(48)
	var preds []expr.Predicate
	for i := 0; i < 5; i++ {
		preds = append(preds, expr.Between{Expr: expr.ColRef{Name: "x"}, Lo: float64(i), Hi: float64(i + 2)})
	}
	for _, p := range preds {
		if _, _, err := filter(r, tb, p, seqOpts); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Evictions == 0 || st.Bytes > 48 || st.AdmissionRejects != 0 {
		t.Fatalf("budget not enforced: %+v", st)
	}
	// The most recent entry survives...
	if _, _, err := filter(r, tb, preds[4], seqOpts); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Hits != 1 {
		t.Fatal("resident entry not served")
	}
	// ...while the LRU one was evicted (its lookup recomputes).
	if _, _, err := filter(r, tb, preds[0], seqOpts); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Hits != 1 {
		t.Fatal("evicted entry served")
	}
}

func TestAdmissionRejectsOversizedSelections(t *testing.T) {
	tb := testTable(t)
	// Budget 64: admission bound is 64/4 = 16 bytes = 4 rows.
	r, _ := New(64)
	big := ge("x", 0) // 10 rows = 40 bytes > 16
	if _, _, err := filter(r, tb, big, seqOpts); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.AdmissionRejects != 1 || st.Entries != 0 {
		t.Fatalf("oversized selection admitted: %+v", st)
	}
	small := ge("x", 7) // 3 rows = 12 bytes
	if _, _, err := filter(r, tb, small, seqOpts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Entries != 1 {
		t.Fatalf("small selection rejected: %+v", st)
	}
}

func TestStaleVersionsEvictedEagerly(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	if _, _, err := filter(r, tb, ge("x", 5), seqOpts); err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow(table.Row{99.0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := filter(r, tb, ge("x", 5), seqOpts); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Entries != 1 {
		t.Fatalf("stale version entry survived: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("stale eviction not counted: %+v", st)
	}
}

// TestStragglerInsertDoesNotEvictFresh pins the stale-sweep direction:
// a query that snapshotted before a concurrent load finishes late and
// inserts at the old version — it must neither evict the fresh
// current-version entries nor park a never-hittable stale entry.
func TestStragglerInsertDoesNotEvictFresh(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	pred := ge("x", 5)
	old := tb.Snapshot() // straggler's view, taken before the load
	if err := tb.AppendRow(table.Row{99.0}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := filter(r, tb, pred, seqOpts); err != nil { // fresh entry
		t.Fatal(err)
	}
	if _, _, err := filter(r, old, pred, seqOpts); err != nil { // straggler
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("straggler disturbed the fresh entry: %+v", st)
	}
	if _, _, err := filter(r, tb, pred, seqOpts); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 1 {
		t.Fatalf("fresh entry lost to a straggler insert: %+v", st)
	}
}

func TestTruePredicateBypasses(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	for _, p := range []expr.Predicate{nil, expr.TruePred{}} {
		sel, _, err := filter(r, tb, p, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		if sel != nil {
			t.Fatalf("TRUE predicate sel = %v, want nil (all rows)", sel)
		}
	}
	if st := r.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("TRUE predicate touched the cache: %+v", st)
	}
}

// opaque is an unkeyable user-defined predicate: the recycler must
// evaluate it correctly without caching.
type opaque struct{ expr.Predicate }

func TestUnkeyablePredicateBypasses(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	p := opaque{ge("x", 5)}
	s1, _, err := filter(r, tb, p, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	if want := (vec.Sel{5, 6, 7, 8, 9}); !reflect.DeepEqual(s1, want) {
		t.Fatalf("sel = %v, want %v", s1, want)
	}
	if st := r.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
		t.Fatalf("unkeyable predicate touched the cache: %+v", st)
	}
}

func TestErrorNotCached(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	bad := ge("missing", 1)
	if _, _, err := filter(r, tb, bad, seqOpts); err == nil {
		t.Fatal("bad predicate succeeded")
	}
	if r.Stats().Entries != 0 {
		t.Fatal("error result cached")
	}
}

func TestReset(t *testing.T) {
	tb := testTable(t)
	r, _ := New(1 << 20)
	_, _, _ = filter(r, tb, ge("x", 5), seqOpts)
	r.Reset()
	st := r.Stats()
	if st.Entries != 0 || st.Misses != 0 || st.Bytes != 0 {
		t.Fatalf("reset incomplete: %+v", st)
	}
}

func TestHitRateEmpty(t *testing.T) {
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty hit rate not 0")
	}
}

func TestDistinctTablesDistinctKeys(t *testing.T) {
	ta := testTable(t)
	tb := table.MustNew("other", table.Schema{{Name: "x", Type: column.Float64}})
	_ = tb.AppendBatch([]table.Row{{100.0}})
	r, _ := New(1 << 20)
	pred := ge("x", 5)
	sa, _, _ := filter(r, ta, pred, seqOpts)
	sb, _, _ := filter(r, tb, pred, seqOpts)
	if len(sa) == len(sb) {
		t.Fatalf("selections suspiciously identical: %v vs %v", sa, sb)
	}
	if r.Stats().Misses != 2 {
		t.Fatal("different tables shared a cache entry")
	}
}
