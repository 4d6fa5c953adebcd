package plancache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sciborq/internal/sqlparse"
)

// TestConcurrentHitEvictVersionBump hammers one cache from three sides
// at once (run under -race in CI): readers looking up and probing a hot
// statement, writers admitting fresh plans under a budget tight enough
// to force eviction, and a version bumper staling the hot table. Every
// returned plan must carry a self-consistent identity.
func TestConcurrentHitEvictVersionBump(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(16*1024, ident.fn)

	hot := "SELECT COUNT(*) FROM t WHERE x > 5"
	st := sqlparse.MustParse(hot)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Version bumper: advances the table version like DB.Load does,
	// once the readers have had time to find each version's plan, and
	// sheds like the governor does under pressure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); v < 40; v++ {
			for before := c.Stats().Hits; c.Stats().Hits == before; {
				runtime.Gosched()
			}
			ident.ver.Store(v)
			c.ShedPlans(planOverhead)
		}
		close(stop)
	}()

	// Writers: keep (re-)admitting the hot statement at the current
	// version plus a churn of distinct statements that overflow the
	// budget.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, ver, _ := ident.fn("t")
				c.Admit("", hot, st, 7, ver)
				churn := fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x > %d AND y < %d", i, w)
				cst, err := sqlparse.Parse(churn)
				if err != nil {
					t.Error(err)
					return
				}
				c.Admit("churn", churn, cst, 7, ver)
				i++
			}
		}(w)
	}

	// Readers: lookups and counting-free probes against the churn.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Contains(hot)
				if pl := c.Lookup("reader", hot); pl != nil {
					if pl.Table != "t" || pl.TableID != 7 {
						t.Errorf("reader %d: plan identity corrupted: %+v", r, pl)
						return
					}
					// The version check raced against the bumper at most
					// one step; the plan must at least be self-consistent.
					if pl.Statement == nil || pl.Prep.Key() == "" {
						t.Errorf("reader %d: incomplete plan served", r)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()

	s := c.Stats()
	if s.Bytes > 16*1024 {
		t.Fatalf("budget overrun after churn: %+v", s)
	}
	if s.Bytes < 0 {
		t.Fatalf("negative byte accounting: %+v", s)
	}
	if s.Invalidations == 0 {
		t.Fatalf("version bumps never invalidated a plan: %+v", s)
	}
}
