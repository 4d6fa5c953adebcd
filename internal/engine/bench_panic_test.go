package engine

import (
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// BenchmarkPanicGuardOverhead measures what the morsel recover guard
// costs on the warm (no-panic, injection-disabled) path. The guard is a
// deferred recover plus one atomic fault-registry load per morsel —
// amortised over a 64K-row morsel it must be noise. Arms:
//
//	bare    — the per-morsel closure invoked directly
//	guarded — the same closure through runMorselGuarded (production path)
//	scan    — a realistic filtered aggregate, whole pipeline under guard
func BenchmarkPanicGuardOverhead(b *testing.B) {
	fn := func(i int) error { return nil }

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := fn(0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("guarded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := runMorselGuarded(fn, 0); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("scan", func(b *testing.B) {
		const rows = 1 << 18
		data := make([]float64, rows)
		want := 0
		for i := range data {
			data[i] = float64(i % 1000)
			if i%1000 < 500 {
				want++
			}
		}
		tb := table.MustNew("bench", table.Schema{{Name: "x", Type: column.Float64}})
		if err := tb.AppendColumns([]column.Column{column.NewFloat64From("x", data)}); err != nil {
			b.Fatal(err)
		}
		q := Query{
			Table: "bench",
			Where: expr.Cmp{Op: vec.Lt, Left: expr.ColRef{Name: "x"}, Right: 500},
			Aggs:  []AggSpec{{Func: Count}},
		}
		opts := ExecOptions{Parallelism: 4}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := RunOnOpts(tb, q, opts)
			if err != nil {
				b.Fatal(err)
			}
			if got, _ := res.Scalar("COUNT(*)"); got != float64(want) {
				b.Fatalf("COUNT = %v", got)
			}
		}
	})
}
