package sciborq

import (
	"fmt"
	"sync"
	"testing"
)

// Front-end-under-ingest audit (run under -race in CI), the sibling of
// recycler_race_test.go: readers hammer one hot statement and a stream
// of literal variants, each request parsed and prepared anew, while
// Load batches bump the table version. Every answer must still be a
// batch-atomic prefix count: a prepared predicate that leaked across
// versions or requests would break it. (The name dates from when the
// front end kept a plan cache; the property it guards is unchanged.)
func TestPlanCacheConcurrentExecWhileLoad(t *testing.T) {
	db := Open(testCost(), WithParallelism(2))
	if _, err := db.CreateTable("R", Schema{{Name: "v", Type: Float64}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("R", raceBatch()); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < raceBatches; b++ {
			if err := db.Load("R", raceBatch()); err != nil {
				t.Errorf("load %d: %v", b, err)
				return
			}
		}
	}()

	// check verifies a count is a batch-atomic prefix: each loaded batch
	// contributes exactly unit matching rows, so any snapshot-consistent
	// answer is a positive multiple of unit within the loaded range.
	check := func(g, i int, sql string, unit int) bool {
		res, err := db.Exec(sql)
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
			return false
		}
		c, err := res.Scalar("c")
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
			return false
		}
		n := int(c)
		if n < unit || n > unit*(raceBatches+1) || n%unit != 0 {
			t.Errorf("goroutine %d iter %d (%q): COUNT %d is not a batch-atomic prefix", g, i, sql, n)
			return false
		}
		return true
	}

	const goroutines = 4
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// The hot repeated spelling: 16 matches per batch ...
				if !check(g, i, "SELECT COUNT(*) AS c FROM R WHERE v < 0.5", raceMatchPerLoad) {
					return
				}
				// ... and a fresh literal variant every iteration: every
				// batch row (all 64) matches v < thresh for any
				// thresh > 0.75.
				thresh := 0.9 + float64((g*60+i)%100)/1000
				if !check(g, i, fmt.Sprintf("SELECT COUNT(*) AS c FROM R WHERE v < %g", thresh), raceBatchRows) {
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// After loads quiesce, the hot statement must land on the final
	// count every time.
	final := raceMatchPerLoad * (raceBatches + 1)
	for i := 0; i < 3; i++ {
		res, err := db.Exec("SELECT COUNT(*) AS c FROM R WHERE v < 0.5")
		if err != nil {
			t.Fatal(err)
		}
		c, err := res.Scalar("c")
		if err != nil {
			t.Fatal(err)
		}
		if int(c) != final {
			t.Fatalf("post-quiesce count %d, want %d", int(c), final)
		}
	}
}
