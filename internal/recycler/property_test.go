package recycler

import (
	"math/rand"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Property suite for the recycler's one correctness claim: however a
// selection is produced — cold scan, exact hit, or subsumption
// refinement over a cached superset — it is bit-identical to a cold
// full evaluation of the same predicate, at every parallelism level.

func randomTable(t *testing.T, rng *rand.Rand, rows int) *table.Table {
	t.Helper()
	tb := table.MustNew("prop", table.Schema{
		{Name: "x", Type: column.Float64},
		{Name: "y", Type: column.Float64},
		{Name: "s", Type: column.String},
	})
	words := []string{"a", "b", "zz"}
	batch := make([]table.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, table.Row{
			rng.Float64() * 10,
			rng.Float64()*20 - 10,
			words[rng.Intn(len(words))],
		})
	}
	if err := tb.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	return tb
}

// randLeaf builds a random keyable leaf predicate over the fixture
// columns; constants land inside the data range so selections are
// non-trivial.
func randLeaf(rng *rand.Rand) expr.Predicate {
	ops := []vec.CmpOp{vec.Eq, vec.Ne, vec.Lt, vec.Le, vec.Gt, vec.Ge}
	switch rng.Intn(4) {
	case 0:
		return expr.Cmp{Op: ops[rng.Intn(len(ops))], Left: expr.ColRef{Name: "x"}, Right: rng.Float64() * 10}
	case 1:
		lo := rng.Float64()*20 - 10
		return expr.Between{Expr: expr.ColRef{Name: "y"}, Lo: lo, Hi: lo + rng.Float64()*12}
	case 2:
		return expr.StrEq{Col: "s", Value: []string{"a", "b", "zz"}[rng.Intn(3)], Neg: rng.Intn(2) == 0}
	default:
		return expr.Cmp{Op: ops[rng.Intn(len(ops))], Left: expr.ColRef{Name: "y"}, Right: rng.Float64()*20 - 10}
	}
}

func randTree(rng *rand.Rand, depth int) expr.Predicate {
	if depth > 0 && rng.Intn(2) == 0 {
		switch rng.Intn(3) {
		case 0:
			return expr.And{L: randTree(rng, depth-1), R: randTree(rng, depth-1)}
		case 1:
			return expr.Or{L: randTree(rng, depth-1), R: randTree(rng, depth-1)}
		default:
			return expr.Not{P: randTree(rng, depth-1)}
		}
	}
	return randLeaf(rng)
}

func sameSel(a, b vec.Sel) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecyclerRefinementMatchesColdScan draws random (p, p AND q)
// pairs over random tables and checks, at workers 1 and 4, that the
// recycler's answer — base entry, then the refinement that subsumes it
// — is bit-identical to an uncached full scan of the same predicate,
// and that Canonical holds its fixed-point and semantics contract on
// every predicate the recycler saw.
func TestRecyclerRefinementMatchesColdScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	subsumed := int64(0)
	for iter := 0; iter < 60; iter++ {
		tb := randomTable(t, rng, 1000+rng.Intn(2000))
		p := randTree(rng, 2)
		q := randLeaf(rng)
		refined := expr.And{L: p, R: q}
		for _, workers := range []int{1, 4} {
			// Small morsels so every table spans many granules.
			opts := engine.ExecOptions{Parallelism: workers, MorselRows: 256}
			r, err := New(1 << 22)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ { // second round: exact hits
				for _, pred := range []expr.Predicate{p, refined} {
					got, _, err := filter(r, tb, pred, opts)
					if err != nil {
						t.Fatal(err)
					}
					coldSel, _, err := engine.Filter(tb, pred, nil, opts)
					if err != nil {
						t.Fatal(err)
					}
					if coldSel == nil {
						coldSel = vec.NewSelAll(tb.Len())
					}
					if got == nil {
						got = vec.NewSelAll(tb.Len())
					}
					if !sameSel(got, coldSel) {
						t.Fatalf("iter %d workers %d round %d: recycler != cold scan for %s (%d vs %d rows)",
							iter, workers, round, pred, len(got), len(coldSel))
					}
					// Fixed point of the canonical form the cache keyed on.
					c := expr.Canonical(pred)
					ck, _ := expr.PredKey(nil, c)
					cck, _ := expr.PredKey(nil, expr.Canonical(c))
					if string(ck) != string(cck) {
						t.Fatalf("iter %d: Canonical not a fixed point for %s", iter, pred)
					}
				}
			}
			st := r.Stats()
			subsumed += st.SubsumedHits
			// Round two repeated both predicates verbatim: exact hits.
			if st.Hits < 2 {
				t.Fatalf("iter %d workers %d: expected exact hits on repeat, stats %+v", iter, workers, st)
			}
		}
	}
	if subsumed == 0 {
		t.Fatal("no iteration exercised subsumption refinement")
	}
}

// TestRecyclerConcurrentSameTable hammers one recycler from many
// goroutines with a mix of repeated and refined predicates over one
// static table; every answer must equal the cold scan. Run with -race.
func TestRecyclerConcurrentSameTable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tb := randomTable(t, rng, 4000)
	r, err := New(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	base := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 7}
	opts := engine.ExecOptions{Parallelism: 2, MorselRows: 512}
	want := map[float64]vec.Sel{}
	for _, cut := range []float64{-5, 0, 5} {
		refined := expr.And{L: base, R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "y"}, Right: cut}}
		sel, _, err := engine.Filter(tb, refined, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[cut] = sel
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			cuts := []float64{-5, 0, 5}
			for i := 0; i < 40; i++ {
				cut := cuts[(g+i)%3]
				refined := expr.And{L: base, R: expr.Cmp{Op: vec.Gt, Left: expr.ColRef{Name: "y"}, Right: cut}}
				got, _, err := filter(r, tb, refined, opts)
				if err != nil {
					done <- err
					return
				}
				if !sameSel(got, want[cut]) {
					t.Errorf("goroutine %d: wrong selection for cut %g", g, cut)
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
