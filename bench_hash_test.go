package sciborq

// Hash-path benchmarks: the flat open-addressing group-by and join
// stack (internal/hashtab) against permanent map-based reference arms
// that reproduce the pre-hashtab implementation. The */mapref arms ARE
// the old engine's algorithm — per-row string keys into
// map[string][]stats.Moments for GROUP BY, map[int64][]int32 build with
// per-key slice appends for joins — so every run measures the map
// baseline next to the flat path on the same machine and data.

import (
	"fmt"
	"sync"
	"testing"

	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/expr"
	"sciborq/internal/hashtab"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// hashBench holds one 1M-row {key, v} table per group-key shape
// (BIGINT and VARCHAR at three cardinalities — separate tables so each
// query snapshots only the columns it scans), a 1M-row join fact table
// with dense and sparse FK columns, and a 10k-row dimension. Built once
// per benchmark binary.
var hashBench = struct {
	once   sync.Once
	groups map[string]*table.Table // key column name -> {key, v} table
	fact   *table.Table
	dim    *table.Table
}{}

const (
	hashBenchRows = 1_000_000
	hashBenchDim  = 10_000
)

func hashBenchTables(b *testing.B) (groups map[string]*table.Table, fact, dim *table.Table) {
	b.Helper()
	hashBench.once.Do(func() {
		const n = hashBenchRows
		gb10 := make([]int64, n)
		gb1k := make([]int64, n)
		gb100k := make([]int64, n)
		fkd := make([]int64, n)
		fks := make([]int64, n)
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
			fkd[i] = int64(state % hashBenchDim) // dense FK: every probe matches
			fks[i] = int64(state % uint64(n))    // sparse FK: ~1% match the 10k dim
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
		fact := table.MustNew("hashfact", table.Schema{
			{Name: "fkd", Type: column.Int64},
			{Name: "fks", Type: column.Int64},
			{Name: "v", Type: column.Float64},
		})
		if err := fact.AppendColumns([]column.Column{
			column.NewInt64From("fkd", fkd),
			column.NewInt64From("fks", fks),
			column.NewFloat64From("v", vs),
		}); err != nil {
			panic(err)
		}
		dk := make([]int64, hashBenchDim)
		dv := make([]float64, hashBenchDim)
		for i := range dk {
			dk[i] = int64(i)
			dv[i] = float64(i) / 11
		}
		dim := table.MustNew("hashdim", table.Schema{
			{Name: "key", Type: column.Int64},
			{Name: "attr", Type: column.Float64},
		})
		if err := dim.AppendColumns([]column.Column{
			column.NewInt64From("key", dk),
			column.NewFloat64From("attr", dv),
		}); err != nil {
			panic(err)
		}
		hashBench.groups, hashBench.fact, hashBench.dim = groups, fact, dim
	})
	return hashBench.groups, hashBench.fact, hashBench.dim
}

// maprefGroupBy reproduces the pre-hashtab GROUP BY: per-morsel
// map[string][]stats.Moments partials keyed by per-row strings
// (fmt.Sprintf for BIGINT, dictionary lookup for VARCHAR), merged in
// ascending morsel order. Returns the group count as a DCE sink.
func maprefGroupBy(b *testing.B, tb *table.Table, keyCol string) int {
	b.Helper()
	n := tb.Len()
	col, err := tb.Col(keyCol)
	if err != nil {
		b.Fatal(err)
	}
	var key func(i int32) string
	switch c := col.(type) {
	case *column.Int64Col:
		key = func(i int32) string { return fmt.Sprintf("%d", c.Data[i]) }
	case *column.StringCol:
		key = func(i int32) string { return c.Value(i) }
	default:
		b.Fatalf("unsupported key column type %s", col.Type())
	}
	vs, err := tb.Float64("v")
	if err != nil {
		b.Fatal(err)
	}
	type partial struct {
		groups map[string][]stats.Moments
		order  []string
	}
	var partials []partial
	for lo := 0; lo < n; lo += engine.DefaultMorselRows {
		hi := min(lo+engine.DefaultMorselRows, n)
		p := partial{groups: make(map[string][]stats.Moments)}
		for i := lo; i < hi; i++ {
			k := key(int32(i))
			ms, ok := p.groups[k]
			if !ok {
				ms = make([]stats.Moments, 2)
				p.order = append(p.order, k)
			}
			ms[0].Observe(1)
			ms[1].Observe(vs[i])
			p.groups[k] = ms
		}
		partials = append(partials, p)
	}
	groups := make(map[string][]stats.Moments)
	var order []string
	for _, p := range partials {
		for _, k := range p.order {
			ms, ok := groups[k]
			if !ok {
				groups[k] = p.groups[k]
				order = append(order, k)
				continue
			}
			for i := range ms {
				ms[i].Merge(p.groups[k][i])
			}
		}
	}
	return len(order)
}

// BenchmarkGroupByHash measures a COUNT + AVG(v) GROUP BY over 1M rows
// at 10 / 1k / 100k groups on BIGINT and VARCHAR keys: the flat arm is
// the real engine path (hashtab dense group ids, dict-coded VARCHAR),
// the mapref arm is the retired map[string]-keyed algorithm. Sequential
// (Parallelism 1) so the arms compare hash stacks, not scheduling.
func BenchmarkGroupByHash(b *testing.B) {
	groups, _, _ := hashBenchTables(b)
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
		b.Run(c.name+"/mapref", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += maprefGroupBy(b, tb, c.col)
			}
			_ = sink
		})
	}
}

// BenchmarkHashJoinProbe measures the probe phase of the FK join — 1M
// fact rows against a prebuilt 10k-row dimension index — in the dense
// (every row matches) and sparse (~1% match) regimes. The flat arm is
// the engine's probe loop: hashtab.Int64Index chains appending into
// pooled vec.SelPool scratch, concatenated into pooled output. The
// mapref arm is the retired loop: map[int64][]int32 lookups appending
// into fresh per-morsel slices, concatenated into fresh output.
func BenchmarkHashJoinProbe(b *testing.B) {
	_, fact, dim := hashBenchTables(b)
	dk, err := dim.Int64("key")
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct{ name, col string }{
		{"dense", "fkd"},
		{"sparse", "fks"},
	} {
		lk, err := fact.Int64(arm.col)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arm.name+"/flat", func(b *testing.B) {
			ix := hashtab.BuildInt64Index(dk)
			b.ReportAllocs()
			b.ResetTimer()
			matches := 0
			for it := 0; it < b.N; it++ {
				matches = 0
				nparts := (len(lk) + engine.DefaultMorselRows - 1) / engine.DefaultMorselRows
				type part struct{ l, r vec.Sel }
				parts := make([]part, 0, nparts)
				for lo := 0; lo < len(lk); lo += engine.DefaultMorselRows {
					hi := min(lo+engine.DefaultMorselRows, len(lk))
					p := part{l: vec.GetSel(hi - lo), r: vec.GetSel(hi - lo)}
					for i := lo; i < hi; i++ {
						for rrow := ix.First(lk[i]); rrow >= 0; rrow = ix.Next(rrow) {
							p.l = append(p.l, int32(i))
							p.r = append(p.r, rrow)
						}
					}
					parts = append(parts, p)
				}
				total := 0
				for _, p := range parts {
					total += len(p.l)
				}
				lsel, rsel := vec.GetSel(total), vec.GetSel(total)
				for _, p := range parts {
					lsel = append(lsel, p.l...)
					rsel = append(rsel, p.r...)
					vec.PutSel(p.l)
					vec.PutSel(p.r)
				}
				matches = len(lsel)
				vec.PutSel(lsel)
				vec.PutSel(rsel)
			}
			b.ReportMetric(float64(matches), "matches")
		})
		b.Run(arm.name+"/mapref", func(b *testing.B) {
			build := make(map[int64][]int32, len(dk))
			for i, k := range dk {
				build[k] = append(build[k], int32(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			matches := 0
			for it := 0; it < b.N; it++ {
				matches = 0
				nparts := (len(lk) + engine.DefaultMorselRows - 1) / engine.DefaultMorselRows
				type part struct{ l, r vec.Sel }
				parts := make([]part, 0, nparts)
				for lo := 0; lo < len(lk); lo += engine.DefaultMorselRows {
					hi := min(lo+engine.DefaultMorselRows, len(lk))
					var p part
					for i := lo; i < hi; i++ {
						for _, rrow := range build[lk[i]] {
							p.l = append(p.l, int32(i))
							p.r = append(p.r, rrow)
						}
					}
					parts = append(parts, p)
				}
				var lsel, rsel vec.Sel
				for _, p := range parts {
					lsel = append(lsel, p.l...)
					rsel = append(rsel, p.r...)
				}
				matches = len(lsel)
			}
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// BenchmarkHashJoinBuild measures building the dimension-side index:
// flat Int64Index (next-pointer arena) vs map[int64][]int32 with
// per-key slice appends, on unique keys and on a duplicate-heavy key
// column (10 build rows per key).
func BenchmarkHashJoinBuild(b *testing.B) {
	_, _, dim := hashBenchTables(b)
	dk, err := dim.Int64("key")
	if err != nil {
		b.Fatal(err)
	}
	dup := make([]int64, 10*len(dk))
	for i := range dup {
		dup[i] = int64(i % len(dk))
	}
	for _, arm := range []struct {
		name string
		keys []int64
	}{
		{"unique10k", dk},
		{"dup100k", dup},
	} {
		b.Run(arm.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += hashtab.BuildInt64Index(arm.keys).Len()
			}
			_ = sink
		})
		b.Run(arm.name+"/mapref", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				build := make(map[int64][]int32, len(arm.keys))
				for j, k := range arm.keys {
					build[k] = append(build[k], int32(j))
				}
				sink += len(build)
			}
			_ = sink
		})
	}
}

// BenchmarkHashJoinEngine measures the full engine join end to end
// (snapshot, flat build, pooled parallel probe, output materialisation)
// in the dense and sparse FK regimes.
func BenchmarkHashJoinEngine(b *testing.B) {
	_, fact, dim := hashBenchTables(b)
	for _, arm := range []struct{ name, col string }{
		{"dense", "fkd"},
		{"sparse", "fks"},
	} {
		b.Run(arm.name, func(b *testing.B) {
			opts := engine.ExecOptions{Parallelism: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.HashJoin(fact, dim, arm.col, "key", opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
