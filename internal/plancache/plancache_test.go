package plancache

import (
	"fmt"
	"sync/atomic"
	"testing"

	"sciborq/internal/sqlparse"
)

// fakeIdent is a settable table-identity source standing in for the
// catalog.
type fakeIdent struct {
	id  atomic.Uint64
	ver atomic.Uint64
	ok  atomic.Bool
}

func newFakeIdent(id, ver uint64) *fakeIdent {
	f := &fakeIdent{}
	f.id.Store(id)
	f.ver.Store(ver)
	f.ok.Store(true)
	return f
}

func (f *fakeIdent) fn(string) (uint64, uint64, bool) {
	return f.id.Load(), f.ver.Load(), f.ok.Load()
}

func admit(t *testing.T, c *Cache, tenant, sql string, id, ver uint64) *Plan {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return c.Admit(tenant, sql, st, id, ver)
}

func TestHit(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	sql := "SELECT COUNT(*) FROM t WHERE x > 5"
	if c.Lookup("", sql) != nil {
		t.Fatal("lookup before admit must miss")
	}
	pl := admit(t, c, "", sql, 7, 1)
	got := c.Lookup("", sql)
	if got != pl {
		t.Fatalf("lookup returned %p, want %p", got, pl)
	}
	st := c.StatsByTenant()[""]
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestVersionStaleness(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	sql := "SELECT COUNT(*) FROM t WHERE x > 5"
	admit(t, c, "", sql, 7, 1)
	ident.ver.Store(2) // a load bumped the version
	if c.Lookup("", sql) != nil {
		t.Fatal("stale plan served after version bump")
	}
	if s := c.StatsByTenant()[""]; s.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation", s)
	}
	// Re-admitting at the new version works and evicts nothing else.
	pl := admit(t, c, "", sql, 7, 2)
	if c.Lookup("", sql) != pl {
		t.Fatal("re-admitted plan not served")
	}
	if s := c.Stats(); s.Entries != 1 || s.Evictions != 0 {
		t.Fatalf("stats = %+v, want the one re-admitted plan and no evictions", s)
	}
}

// TestSpellingsDoNotConverge pins the one-tier contract: only the exact
// byte string hits. A literal variant or a commuted spelling is a miss
// with its own plan, and a stale plan nobody looks up again stays until
// the budget ages it out.
func TestSpellingsDoNotConverge(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	a := admit(t, c, "", "SELECT COUNT(*) FROM t WHERE a > 1 AND b < 2", 7, 1)
	for _, sql := range []string{
		"select count(*) from t where b < 2 and a > 1",
		"SELECT COUNT(*) FROM t WHERE a > 3 AND b < 2",
	} {
		if c.Lookup("", sql) != nil {
			t.Fatalf("%q hit a plan cached under another spelling", sql)
		}
		if b := admit(t, c, "", sql, 7, 1); b == a {
			t.Fatalf("%q converged on another spelling's plan", sql)
		}
	}
	ident.ver.Store(2)
	admit(t, c, "", "SELECT COUNT(*) FROM t WHERE y > 5", 7, 2)
	if s := c.Stats(); s.Entries != 4 || s.Misses != 4 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 resident plans from 4 misses", s)
	}
}

func TestBudgetEviction(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(2*planOverhead+256, ident.fn) // room for ~2 plans
	for i := 0; i < 8; i++ {
		admit(t, c, "", fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x > %d AND y < %d", i, i), 7, 1)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under a tight budget: %+v", s)
	}
	if s.Bytes > c.budget {
		t.Fatalf("bytes %d exceed budget %d", s.Bytes, c.budget)
	}
	// LRU: the most recent admission survives, the first is long gone.
	if c.Lookup("", "SELECT COUNT(*) FROM t WHERE x > 7 AND y < 7") == nil {
		t.Fatal("most recently admitted plan was evicted before older ones")
	}
	if c.Contains("SELECT COUNT(*) FROM t WHERE x > 0 AND y < 0") {
		t.Fatal("oldest plan survived a budget that holds two")
	}
}

// TestEvictionIsBatched: one overflow evicts down to 7/8 of the budget,
// so a cache sitting at its budget does not re-sort on every miss.
func TestEvictionIsBatched(t *testing.T) {
	ident := newFakeIdent(7, 1)
	sql := func(i int) string { return fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x > %02d", i) }
	per := int64(len(sql(0))) + planOverhead
	c := New(16*per, ident.fn)
	for i := 0; i < 16; i++ {
		admit(t, c, "", sql(i), 7, 1)
	}
	if s := c.Stats(); s.Entries != 16 || s.Evictions != 0 {
		t.Fatalf("a full budget evicted early: %+v", s)
	}
	admit(t, c, "", sql(16), 7, 1)
	if s := c.Stats(); s.Entries != 14 || s.Evictions != 3 {
		t.Fatalf("overflow by one plan left %+v, want 14 resident after 3 evictions", s)
	}
}

// TestShedPlans: the governor's hook frees at least what it was asked
// for, oldest first, regardless of the cache's own budget.
func TestShedPlans(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	sqls := make([]string, 4)
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT COUNT(*) FROM t WHERE x > %d", i)
		admit(t, c, "", sqls[i], 7, 1)
	}
	c.Lookup("", sqls[0]) // now the most recently used
	before := c.PlanUsage()
	if freed := c.ShedPlans(1); freed <= 0 || freed != before-c.PlanUsage() {
		t.Fatalf("ShedPlans(1) freed %d, usage %d -> %d", freed, before, c.PlanUsage())
	}
	if c.Contains(sqls[1]) || !c.Contains(sqls[0]) {
		t.Fatal("shed did not take the least recently used plan")
	}
	if freed := c.ShedPlans(1 << 30); freed <= 0 || c.PlanUsage() != 0 {
		t.Fatalf("full shed freed %d, left %d bytes", freed, c.PlanUsage())
	}
	if s := c.Stats(); s.Entries != 0 || s.Evictions != 4 {
		t.Fatalf("stats after full shed = %+v", s)
	}
	if c.ShedPlans(1) != 0 {
		t.Fatal("shedding an empty cache freed bytes")
	}
}

func TestPerTenantStats(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	sql := "SELECT COUNT(*) FROM t WHERE x > 5"
	admit(t, c, "alice", sql, 7, 1)
	c.Lookup("alice", sql)
	c.Lookup("bob", sql) // bob hits alice's plan; counted for bob
	by := c.StatsByTenant()
	if by["alice"].Hits != 1 || by["alice"].Misses != 1 {
		t.Fatalf("alice stats = %+v", by["alice"])
	}
	if by["bob"].Hits != 1 {
		t.Fatalf("bob stats = %+v", by["bob"])
	}
	agg := c.Stats()
	if agg.Hits != 2 || agg.Misses != 1 {
		t.Fatalf("aggregate stats = %+v", agg)
	}
}

// TestContainsDoesNotCount pins the CheckSQL probe's contract: it
// reports residency without skewing stats or the LRU clock (the server
// probes before every execution, so counting would double every hit
// onto the default tenant).
func TestContainsDoesNotCount(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	sql := "SELECT COUNT(*) FROM t WHERE x > 5"
	if c.Contains(sql) {
		t.Fatal("contains before admit")
	}
	admit(t, c, "", sql, 7, 1)
	clock := c.clock.Load()
	for i := 0; i < 10; i++ {
		if !c.Contains(sql) {
			t.Fatal("admitted statement not contained")
		}
	}
	if got := c.StatsByTenant()[""]; got.Hits != 0 || got.Misses != 1 {
		t.Fatalf("Contains counted: %+v", got)
	}
	if c.clock.Load() != clock {
		t.Fatal("Contains advanced the LRU clock")
	}
	ident.ver.Store(2)
	if c.Contains(sql) {
		t.Fatal("stale entry reported as contained")
	}
	if got := c.StatsByTenant()[""]; got.Invalidations != 0 {
		t.Fatalf("Contains counted an invalidation: %+v", got)
	}
}

// TestLookupZeroAlloc is the package-local half of the allocation gate
// (the end-to-end gate lives in bench_parse_test.go at the repo root):
// a warm lookup must not allocate.
func TestLookupZeroAlloc(t *testing.T) {
	ident := newFakeIdent(7, 1)
	c := New(0, ident.fn)
	sql := "SELECT COUNT(*) FROM t WHERE x > 5 AND y < 3"
	admit(t, c, "", sql, 7, 1)
	c.Lookup("", sql) // warm the tenant counter block
	allocs := testing.AllocsPerRun(1000, func() {
		if c.Lookup("", sql) == nil {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Lookup allocates %v objects/op, want 0", allocs)
	}
}
