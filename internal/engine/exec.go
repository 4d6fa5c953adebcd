package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"sciborq/internal/column"
	"sciborq/internal/expr"
	"sciborq/internal/hashtab"
	"sciborq/internal/stats"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Result is a fully materialised query result.
type Result struct {
	Table *table.Table
	// ScannedRows is the number of base rows the executor touched
	// (zone-map-pruned morsels excluded); the cost model calibrates
	// against it.
	ScannedRows int
	// Stats reports the scan's morsel layout and zone-map pruning.
	Stats ScanStats
	// States holds the merged per-aggregate moments of an ungrouped
	// aggregate result (nil otherwise): the exact rung of bounded
	// execution reads matched-row counts from them.
	States []AggState
}

// Len returns the number of result rows.
func (r *Result) Len() int { return r.Table.Len() }

// Float64Col returns a float64 result column by name.
func (r *Result) Float64Col(name string) ([]float64, error) { return r.Table.Float64(name) }

// Scalar returns the single value of a one-row, one-column aggregate
// result column.
func (r *Result) Scalar(name string) (float64, error) {
	col, err := r.Table.Float64(name)
	if err != nil {
		return 0, err
	}
	if len(col) != 1 {
		return 0, fmt.Errorf("engine: column %q has %d rows, want 1", name, len(col))
	}
	return col[0], nil
}

// RunOnOpts evaluates q over every row of t. Aggregates run through
// the fused morsel pipeline (filter + partial aggregation per
// morsel, deterministic morsel-order merge); projections filter in
// parallel and materialise sequentially. The whole query runs over a
// snapshot of t taken here, so concurrent Loads on the source table
// are safe and invisible to the query.
func RunOnOpts(t *table.Table, q Query, opts ExecOptions) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	t = t.Snapshot()
	if len(q.Aggs) > 0 {
		return runAggs(t, q, q.Pred(), scanParts(nil, t.Len(), opts), opts)
	}
	sel, stats, err := Filter(t, q.Pred(), nil, opts)
	if err != nil {
		return nil, err
	}
	return project(t, sel, q, stats)
}

// Prefiltered execution: run a query whose WHERE selection has already
// been computed — the recycler's and the bounded projection's hook into
// the executor. The selection is partitioned into the same
// granule-aligned morsel layout a cold scan produces and folded through
// the same per-morsel partial structures, so a query answered from a
// cached selection is bit-identical (floating point included) to the
// same query evaluated from scratch at any parallelism level.

// RunOnFilteredOpts evaluates q against t given sel as the precomputed
// WHERE selection: exactly the rows of t satisfying q's predicate, in
// strictly ascending order (nil = all rows). The predicate itself is
// NOT re-evaluated. t must be the snapshot the selection was computed
// on (snapshotting again is a no-op); scan is attached to the result
// for cost-model accounting. Aggregates, GROUP BY, ORDER BY and LIMIT
// behave exactly like RunOnOpts — in particular LIMIT takes the
// storage-order prefix of sel (a bounded projection that wants a
// representative subsample thins sel before calling).
func RunOnFilteredOpts(t *table.Table, sel vec.Sel, q Query, scan ScanStats, opts ExecOptions) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	t = t.Snapshot()
	if len(q.Aggs) == 0 {
		return project(t, sel, q, scan)
	}
	res, err := runAggs(t, q, expr.TruePred{}, scanParts(sel, t.Len(), opts), opts)
	if err != nil {
		return nil, err
	}
	res.ScannedRows, res.Stats = scan.ScannedRows, scan
	return res, nil
}

// project materialises the selected columns, applying ORDER BY / LIMIT.
// A single "*" projection expands to the full schema.
func project(t *table.Table, sel vec.Sel, q Query, stats ScanStats) (*Result, error) {
	if len(q.Select) == 1 && q.Select[0] == "*" {
		q.Select = t.Schema().Names()
	}
	sel, err := orderAndLimit(t, sel, q)
	if err != nil {
		return nil, err
	}
	out, err := t.Project(resultName(q), q.Select, sel)
	if err != nil {
		return nil, err
	}
	return &Result{Table: out, ScannedRows: stats.ScannedRows, Stats: stats}, nil
}

// orderAndLimit sorts sel (nil = every row of t) by the ORDER BY column
// of t and truncates it to LIMIT. DOUBLE keys compare with cmp.Compare,
// a total order in which NaN sorts below every number; BIGINT keys
// compare as int64, exact beyond 2^53. Equal keys keep their input
// order.
func orderAndLimit(t *table.Table, sel vec.Sel, q Query) (vec.Sel, error) {
	if sel == nil {
		sel = vec.NewSelAll(t.Len())
	}
	if q.OrderBy != "" {
		col, err := t.Col(q.OrderBy)
		if err != nil {
			return nil, err
		}
		var compare func(a, b int32) int
		switch c := col.(type) {
		case *column.Float64Col:
			compare = func(a, b int32) int { return cmp.Compare(c.Data[a], c.Data[b]) }
		case *column.Int64Col:
			compare = func(a, b int32) int { return cmp.Compare(c.Data[a], c.Data[b]) }
		default:
			return nil, fmt.Errorf("engine: ORDER BY %q: unsupported type %s", q.OrderBy, col.Type())
		}
		sorted := slices.Clone(sel)
		slices.SortStableFunc(sorted, func(a, b int32) int {
			if q.Desc {
				return compare(b, a)
			}
			return compare(a, b)
		})
		sel = sorted
	}
	if q.Limit > 0 && len(sel) > q.Limit {
		sel = sel[:q.Limit]
	}
	return sel, nil
}

// AggState carries the moments of one aggregate's input.
type AggState struct {
	Spec    AggSpec
	Moments stats.Moments
}

// Value returns the aggregate's exact value over the observed input.
func (s *AggState) Value() float64 {
	m := &s.Moments
	switch s.Spec.Func {
	case Count:
		return float64(m.N())
	case Sum:
		return m.Mean() * float64(m.N())
	case Avg:
		return m.Mean()
	case Min:
		return m.Min()
	case Max:
		return m.Max()
	case StdDev:
		return m.StdDev()
	}
	return math.NaN()
}

// aggArgs materialises every aggregate argument column once, before the
// morsel fan-out; workers then only read the shared slices.
func aggArgs(t *table.Table, aggs []AggSpec) ([][]float64, error) {
	args := make([][]float64, len(aggs))
	for i, a := range aggs {
		if a.Arg == nil {
			continue
		}
		vals, err := a.Arg.EvalF64(t)
		if err != nil {
			return nil, err
		}
		args[i] = vals
	}
	return args, nil
}

// runAggs evaluates q's aggregates, grouped or not, over the scan of
// pred across parts. The base scan (RunOnOpts) filters every morsel; the
// prefiltered fold (RunOnFilteredOpts) scans an already-computed
// selection under TRUE. Both hand parts to the fold under their morsel
// index m, so the partial-merge order — and with it every
// floating-point result — is identical between a cold scan and a
// recycled selection.
func runAggs(t *table.Table, q Query, pred expr.Predicate, parts []part, opts ExecOptions) (*Result, error) {
	if q.GroupBy != "" {
		return groupByAggregate(t, q, pred, parts, opts)
	}
	return aggregate(t, q, pred, parts, opts)
}

// aggregate evaluates a global (ungrouped) aggregate query with the
// fused morsel pipeline: each part folds per-aggregate moments over
// the rows of it matching pred, one argument column at a time, and the
// partials merge in morsel order. COUNT(*) is the part's row count. t
// is the query snapshot.
func aggregate(t *table.Table, q Query, pred expr.Predicate, parts []part, opts ExecOptions) (*Result, error) {
	args, err := aggArgs(t, q.Aggs)
	if err != nil {
		return nil, err
	}
	partials := make([][]stats.Moments, opts.morselCount(t.Len()))
	scanned, err := scan(t, parts, pred, opts, func(p part, sel vec.Sel) error {
		ms := make([]stats.Moments, len(q.Aggs))
		matched := len(sel)
		if sel == nil {
			matched = p.hi - p.lo
		}
		for i, vals := range args {
			switch {
			case vals == nil: // COUNT(*)
				ms[i].ObserveRepeat(1, matched)
			case sel == nil:
				ms[i].ObserveAll(vals[p.lo:p.hi])
			default:
				ms[i].ObserveSel(vals, sel)
			}
		}
		partials[p.m] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	states := make([]AggState, len(q.Aggs))
	for i, a := range q.Aggs {
		states[i].Spec = a
		for m := range partials {
			if partials[m] == nil {
				continue // zone-map-pruned morsel: no partial state
			}
			states[i].Moments.Merge(partials[m][i])
		}
	}
	res, err := resultFromStates(q, states)
	if err != nil {
		return nil, err
	}
	res.ScannedRows = scanned.ScannedRows
	res.Stats = scanned
	return res, nil
}

// resultFromStates assembles a one-row aggregate result from merged
// aggregate states.
func resultFromStates(q Query, states []AggState) (*Result, error) {
	schema := make(table.Schema, len(states))
	for i, s := range states {
		schema[i] = table.ColumnDef{Name: s.Spec.Name(), Type: column.Float64}
	}
	out, err := table.New(resultName(q), schema)
	if err != nil {
		return nil, err
	}
	row := make(table.Row, len(states))
	for i := range states {
		row[i] = states[i].Value()
	}
	if err := out.AppendRow(row); err != nil {
		return nil, err
	}
	return &Result{Table: out, States: states}, nil
}

// Grouping is the dict-coded view of a GROUP BY column: every row maps
// to a raw int64 hash key with no materialisation — BIGINT columns
// group on the stored value, VARCHAR columns on the dictionary code —
// and keys render to their output string once per group, not per row.
// It is shared with the estimate package, whose grouped estimates must
// agree with the engine on group keys and first-seen order.
type Grouping struct {
	str   bool
	i64   []int64           // BIGINT path: raw values
	codes []int32           // VARCHAR path: per-row dictionary codes
	dict  *column.StringCol // VARCHAR path: code -> string decoding
}

// GroupingFor resolves the GROUP BY column of t (a snapshot) to its
// hash-key view.
func GroupingFor(t *table.Table, name string) (Grouping, error) {
	col, err := t.Col(name)
	if err != nil {
		return Grouping{}, err
	}
	switch c := col.(type) {
	case *column.Int64Col:
		return Grouping{i64: c.Data}, nil
	case *column.StringCol:
		return Grouping{str: true, codes: c.Data, dict: c}, nil
	default:
		return Grouping{}, fmt.Errorf("engine: GROUP BY %q: unsupported type %s", name, col.Type())
	}
}

// Key returns row's raw group key.
func (g *Grouping) Key(row int32) int64 {
	if g.str {
		return int64(g.codes[row])
	}
	return g.i64[row]
}

// Render returns the output string for a group key.
func (g *Grouping) Render(key int64) string {
	if g.str {
		return g.dict.Word(int32(key))
	}
	return strconv.FormatInt(key, 10)
}

// groupPartial is one morsel's hash-grouped partial state: a pooled
// flat table assigning dense local group ids in first-seen order, and a
// pooled flat moments arena indexed [gid*naggs + agg].
type groupPartial struct {
	tab *hashtab.Int64Table
	ms  []stats.Moments
}

// groupByAggregate evaluates a grouped aggregate query via per-morsel
// hash grouping on the flat hashtab tables: each morsel assigns dense
// local group ids and folds aggregates into a flat moments arena (no
// string keys, no per-group slices); the coordinator merges partials in
// ascending morsel order through a global id table, so the global
// first-seen group order (and every floating-point merge) matches the
// sequential scan order exactly. Zone-map-pruned morsels leave empty
// partials, which merge as no-ops. t is the query snapshot.
func groupByAggregate(t *table.Table, q Query, pred expr.Predicate, parts []part, opts ExecOptions) (*Result, error) {
	grp, err := GroupingFor(t, q.GroupBy)
	if err != nil {
		return nil, err
	}
	args, err := aggArgs(t, q.Aggs)
	if err != nil {
		return nil, err
	}
	naggs := len(q.Aggs)
	partials := make([]groupPartial, opts.morselCount(t.Len()))
	scanned, err := scan(t, parts, pred, opts, func(pt part, sel vec.Sel) error {
		p := groupPartial{tab: hashtab.GetTable(), ms: stats.GetMoments(0)}
		forSel(sel, pt.lo, pt.hi, func(row int32) {
			gid, fresh := p.tab.GetOrInsert(grp.Key(row))
			if fresh {
				for i := 0; i < naggs; i++ {
					p.ms = append(p.ms, stats.Moments{})
				}
			}
			base := int(gid) * naggs
			for i := 0; i < naggs; i++ {
				if args[i] == nil {
					p.ms[base+i].Observe(1) // COUNT(*)
				} else {
					p.ms[base+i].Observe(args[i][row])
				}
			}
		})
		partials[pt.m] = p
		return nil
	})
	if err != nil {
		// Release whatever partials completed before the error.
		for _, p := range partials {
			if p.tab != nil {
				hashtab.PutTable(p.tab)
				stats.PutMoments(p.ms)
			}
		}
		return nil, err
	}
	// Merge in ascending morsel order through a global dense id table;
	// global ids are assigned in merge order, which is exactly the
	// sequential scan's first-seen group order.
	global := hashtab.NewInt64Table(0)
	var gms []stats.Moments
	for _, p := range partials {
		if p.tab == nil {
			continue // zone-map-pruned morsel: no partial state
		}
		for lid, key := range p.tab.Keys() {
			gid, fresh := global.GetOrInsert(key)
			if fresh {
				for i := 0; i < naggs; i++ {
					gms = append(gms, stats.Moments{})
				}
			}
			gbase, lbase := int(gid)*naggs, lid*naggs
			for i := 0; i < naggs; i++ {
				gms[gbase+i].Merge(p.ms[lbase+i])
			}
		}
		hashtab.PutTable(p.tab)
		stats.PutMoments(p.ms)
	}
	schema := make(table.Schema, 0, naggs+1)
	schema = append(schema, table.ColumnDef{Name: q.GroupBy, Type: column.String})
	for _, a := range q.Aggs {
		schema = append(schema, table.ColumnDef{Name: a.Name(), Type: column.Float64})
	}
	out, err := table.New(resultName(q), schema)
	if err != nil {
		return nil, err
	}
	for gid, key := range global.Keys() {
		row := make(table.Row, 0, naggs+1)
		row = append(row, grp.Render(key))
		for i, a := range q.Aggs {
			st := AggState{Spec: a, Moments: gms[gid*naggs+i]}
			row = append(row, st.Value())
		}
		if err := out.AppendRow(row); err != nil {
			return nil, err
		}
	}
	return orderGrouped(out, q, scanned)
}

// orderGrouped applies ORDER BY / LIMIT to a grouped result table
// through the projection path.
func orderGrouped(out *table.Table, q Query, scan ScanStats) (*Result, error) {
	if q.OrderBy == "" && q.Limit == 0 {
		return &Result{Table: out, ScannedRows: scan.ScannedRows, Stats: scan}, nil
	}
	q.Select = []string{"*"}
	res, err := project(out, nil, q, scan)
	if err != nil && q.OrderBy != "" {
		return nil, fmt.Errorf("engine: ORDER BY %q must name an aggregate output: %w", q.OrderBy, err)
	}
	return res, err
}

func resultName(q Query) string { return "result(" + q.Table + ")" }
