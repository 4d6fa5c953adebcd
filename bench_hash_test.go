package sciborq

// Hash-path benchmarks: the flat open-addressing group-by
// (internal/hashtab) over BIGINT and VARCHAR keys. The map-based
// reference algorithm survives as the oracle of
// engine.TestHashGroupByMatchesMapReference.

import (
	"fmt"
	"sync"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/table"
)

// hashBench holds one 1M-row {key, v} table per group-key shape
// (BIGINT and VARCHAR at three cardinalities — separate tables so each
// query snapshots only the columns it scans). Built once per benchmark
// binary.
var hashBench = struct {
	once   sync.Once
	groups map[string]*table.Table // key column name -> {key, v} table
}{}

const hashBenchRows = 1_000_000

func hashBenchTables(b *testing.B) map[string]*table.Table {
	b.Helper()
	hashBench.once.Do(func() {
		const n = hashBenchRows
		gb10 := make([]int64, n)
		gb1k := make([]int64, n)
		gb100k := make([]int64, n)
		vs := make([]float64, n)
		gs10 := column.NewString("gs10")
		gs1k := column.NewString("gs1k")
		gs100k := column.NewString("gs100k")
		state := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < n; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			gb10[i] = int64(state % 10)
			gb1k[i] = int64(state % 1000)
			gb100k[i] = int64(state % 100_000)
			vs[i] = float64(int64(state>>20)%2001-1000) / 7
			gs10.Append(fmt.Sprintf("c%d", gb10[i]))
			gs1k.Append(fmt.Sprintf("cat%03d", gb1k[i]))
			gs100k.Append(fmt.Sprintf("cat%05d", gb100k[i]))
		}
		groups := make(map[string]*table.Table)
		addGroup := func(name string, key column.Column, typ column.Type) {
			tb := table.MustNew("hash_"+name, table.Schema{
				{Name: name, Type: typ},
				{Name: "v", Type: column.Float64},
			})
			if err := tb.AppendColumns([]column.Column{
				key,
				column.NewFloat64From("v", vs),
			}); err != nil {
				panic(err)
			}
			groups[name] = tb
		}
		addGroup("gb10", column.NewInt64From("gb10", gb10), column.Int64)
		addGroup("gb1k", column.NewInt64From("gb1k", gb1k), column.Int64)
		addGroup("gb100k", column.NewInt64From("gb100k", gb100k), column.Int64)
		addGroup("gs10", gs10, column.String)
		addGroup("gs1k", gs1k, column.String)
		addGroup("gs100k", gs100k, column.String)
		hashBench.groups = groups
	})
	return hashBench.groups
}

// BenchmarkGroupByHash measures a COUNT + AVG(v) GROUP BY over 1M rows
// at 10 / 1k / 100k groups on BIGINT and VARCHAR keys through the real
// engine path (hashtab dense group ids, dict-coded VARCHAR). Sequential
// (Parallelism 1) so the numbers measure the hash stack, not
// scheduling.
func BenchmarkGroupByHash(b *testing.B) {
	groups := hashBenchTables(b)
	cases := []struct{ name, col string }{
		{"bigint_g10", "gb10"},
		{"bigint_g1k", "gb1k"},
		{"bigint_g100k", "gb100k"},
		{"varchar_g10", "gs10"},
		{"varchar_g1k", "gs1k"},
		{"varchar_g100k", "gs100k"},
	}
	for _, c := range cases {
		tb := groups[c.col]
		q := engine.Query{
			Table:   tb.Name(),
			GroupBy: c.col,
			Aggs: []engine.AggSpec{
				{Func: engine.Count},
				{Func: engine.Avg, Arg: expr.ColRef{Name: "v"}, Alias: "m"},
			},
		}
		b.Run(c.name+"/flat", func(b *testing.B) {
			opts := engine.ExecOptions{Parallelism: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.RunOnOpts(tb, q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
