package recycler

import (
	"fmt"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

func poolTable(t *testing.T, n int) *table.Table {
	t.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 100)
	}
	tb := table.MustNew("pool", table.Schema{{Name: "x", Type: column.Float64}})
	if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", data)}); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPoolPartitionsAreIsolated(t *testing.T) {
	p, err := NewPool(1<<20, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	tb := poolTable(t, 10_000)
	pred := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 50}
	opts := engine.ExecOptions{Parallelism: 1}

	// Warm tenant a, then issue the same predicate as tenant b: b must
	// miss — partitions share nothing.
	if _, _, err := filter(p.For("a"), tb, pred, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := filter(p.For("b"), tb, pred, opts); err != nil {
		t.Fatal(err)
	}
	if hits := p.For("a").Stats().Hits; hits != 0 {
		t.Fatalf("tenant a has %d hits after two cold queries, want 0", hits)
	}
	if misses := p.For("b").Stats().Misses; misses != 1 {
		t.Fatalf("tenant b misses = %d, want 1", misses)
	}
	// Repeat as tenant a: exact hit inside a's partition only.
	if _, _, err := filter(p.For("a"), tb, pred, opts); err != nil {
		t.Fatal(err)
	}
	if hits := p.For("a").Stats().Hits; hits != 1 {
		t.Fatalf("tenant a hits = %d, want 1", hits)
	}
	if hits := p.For("b").Stats().Hits; hits != 0 {
		t.Fatalf("tenant b hits = %d, want 0", hits)
	}
}

func TestPoolDefaultPartition(t *testing.T) {
	p, err := NewPool(1<<20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.For("") != p.Default() {
		t.Fatal("empty tenant must resolve to the default partition")
	}
	stats := p.StatsByTenant()
	if _, ok := stats[""]; !ok {
		t.Fatal("StatsByTenant must include the default partition under \"\"")
	}
}

func TestPoolEvictsLRUBeyondCap(t *testing.T) {
	p, err := NewPool(1<<20, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	ra := p.For("a")
	p.For("b")
	p.For("a") // refresh a: b is now LRU
	p.For("c") // evicts b
	tenants := p.Tenants()
	if len(tenants) != 2 {
		t.Fatalf("resident tenants = %v, want 2 entries", tenants)
	}
	for _, tn := range tenants {
		if tn == "b" {
			t.Fatalf("tenant b should have been evicted, got %v", tenants)
		}
	}
	if p.For("a") != ra {
		t.Fatal("tenant a should have survived eviction with its identity intact")
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	p, err := NewPool(1<<20, 1<<18, 4)
	if err != nil {
		t.Fatal(err)
	}
	tb := poolTable(t, 4096)
	opts := engine.ExecOptions{Parallelism: 1}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			tenant := fmt.Sprintf("t%d", g%5)
			var firstErr error
			for i := 0; i < 50; i++ {
				pred := expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: float64(i % 7 * 10)}
				if _, _, err := filter(p.For(tenant), tb, pred, opts); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			done <- firstErr
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
