package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

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
		return sortLimit(slices.Clone(sel), compare, q), nil
	}
	return sortLimit(sel, nil, q), nil
}

// sortLimit sorts sel in place by compare — stably, so equal keys keep
// their input order, ascending or descending under q.Desc — unless
// compare is nil, and cuts it to LIMIT.
func sortLimit(sel vec.Sel, compare func(a, b int32) int, q Query) vec.Sel {
	if compare != nil {
		slices.SortStableFunc(sel, func(a, b int32) int {
			if q.Desc {
				return compare(b, a)
			}
			return compare(a, b)
		})
	}
	if q.Limit > 0 && len(sel) > q.Limit {
		sel = sel[:q.Limit]
	}
	return sel
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
	i64   []int64           // BIGINT path: raw values
	codes []int32           // VARCHAR path: per-row dictionary codes
	dict  *column.StringCol // VARCHAR path: code -> string decoding; nil for BIGINT
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
		return Grouping{codes: c.Data, dict: c}, nil
	default:
		return Grouping{}, fmt.Errorf("engine: GROUP BY %q: unsupported type %s", name, col.Type())
	}
}

// IDs maps each row of rows to its dense group id in tab, which assigns
// ids to keys in first-seen order, and returns the ids in dst (grown to
// len(rows); pooled scratch works). When the rows' keys span no more
// values than there are rows — BIGINT max−min over the rows, VARCHAR
// the dictionary size — a direct-mapped memo indexed by key−min sits in
// front of tab, so only a key's first sighting is hashed; otherwise
// every row probes tab. Both ways assign the same ids.
func (g *Grouping) IDs(tab *hashtab.Int64Table, rows vec.Sel, dst []int32) []int32 {
	if cap(dst) < len(rows) {
		dst = make([]int32, len(rows))
	}
	dst = dst[:len(rows)]
	if len(rows) == 0 {
		return dst
	}
	if g.dict != nil {
		if span := g.dict.DictSize(); span <= len(rows) {
			memoIDs(tab, g.codes, rows, 0, span, dst)
		} else {
			hashIDs(tab, g.codes, rows, dst)
		}
		return dst
	}
	lo, hi := g.i64[rows[0]], g.i64[rows[0]]
	for _, r := range rows {
		k := g.i64[r]
		lo, hi = min(lo, k), max(hi, k)
	}
	// The span in uint64, where hi−lo cannot overflow: keys at both
	// ends of int64 span 2^64−1, far wider than any part.
	if span := uint64(hi) - uint64(lo); span <= uint64(len(rows)) {
		memoIDs(tab, g.i64, rows, lo, int(span)+1, dst)
	} else {
		hashIDs(tab, g.i64, rows, dst)
	}
	return dst
}

// hashIDs probes tab for every row's key.
func hashIDs[K int32 | int64](tab *hashtab.Int64Table, keys []K, rows vec.Sel, dst []int32) {
	for i, r := range rows {
		id, _ := tab.GetOrInsert(int64(keys[r]))
		dst[i] = int32(id)
	}
}

// memoIDs is hashIDs behind a pooled memo of the ids of the slots keys
// lo .. lo+slots−1, which must cover every row's key: a key reaches tab
// once, on its first sighting.
func memoIDs[K int32 | int64](tab *hashtab.Int64Table, keys []K, rows vec.Sel, lo K, slots int, dst []int32) {
	memo := vec.GetSel(slots)[:slots]
	for i := range memo {
		memo[i] = -1
	}
	for i, r := range rows {
		k := keys[r]
		id := memo[k-lo]
		if id < 0 {
			slot, _ := tab.GetOrInsert(int64(k))
			id = int32(slot)
			memo[k-lo] = id
		}
		dst[i] = id
	}
	vec.PutSel(memo)
}

// Render returns the output string for a group key.
func (g *Grouping) Render(key int64) string {
	if g.dict != nil {
		return g.dict.Word(int32(key))
	}
	return strconv.FormatInt(key, 10)
}

// compare orders two group keys as their column does: BIGINT as int64,
// VARCHAR by its word.
func (g *Grouping) compare(a, b int64) int {
	if g.dict != nil {
		return strings.Compare(g.dict.Word(int32(a)), g.dict.Word(int32(b)))
	}
	return cmp.Compare(a, b)
}

// groupPartial is one morsel's hash-grouped partial state: a pooled
// flat table assigning dense local group ids in first-seen order, and a
// pooled flat moments arena indexed [gid*naggs + agg].
type groupPartial struct {
	tab *hashtab.Int64Table
	ms  []stats.Moments
}

// release returns the partial's pooled storage.
func (p groupPartial) release() {
	hashtab.PutTable(p.tab)
	stats.PutMoments(p.ms)
}

// foldGroups folds one part's rows into a pooled partial in three
// passes with no per-row call: group ids once (Grouping.IDs); COUNT(*)
// from per-group row counts; one ObserveGrouped loop per argument
// column. args holds each aggregate's argument column, nil for
// COUNT(*).
func foldGroups(grp *Grouping, args [][]float64, rows vec.Sel) groupPartial {
	p := groupPartial{tab: hashtab.GetTable()}
	ids := grp.IDs(p.tab, rows, vec.GetSel(len(rows)))
	naggs, groups := len(args), p.tab.Len()
	p.ms = stats.GetMoments(groups * naggs)[:groups*naggs]
	clear(p.ms)
	if groups == 0 { // an empty selection
		vec.PutSel(ids)
		return p
	}
	var counts vec.Sel
	for i, vals := range args {
		if vals != nil {
			stats.ObserveGrouped(p.ms[i:], naggs, vals, rows, ids)
			continue
		}
		if counts == nil {
			counts = vec.GetSel(groups)[:groups]
			clear(counts)
			for _, id := range ids {
				counts[id]++
			}
		}
		for gid, n := range counts {
			p.ms[gid*naggs+i].ObserveRepeat(1, int(n))
		}
	}
	vec.PutSel(counts)
	vec.PutSel(ids)
	return p
}

// groupByAggregate evaluates a grouped aggregate query via per-morsel
// hash grouping on the flat hashtab tables: each morsel assigns dense
// local group ids and folds aggregates into a flat moments arena
// (foldGroups); the coordinator merges partials in ascending morsel
// order through a global id table, so the global first-seen group order
// (and every floating-point merge) matches the sequential scan order
// exactly. Zone-map-pruned morsels leave empty partials, which merge as
// no-ops. t is the query snapshot.
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
		if sel == nil {
			sel = vec.FillSelRange(vec.GetSel(pt.hi-pt.lo), pt.lo, pt.hi)
			defer vec.PutSel(sel)
		}
		partials[pt.m] = foldGroups(&grp, args, sel)
		return nil
	})
	if err != nil {
		// Release whatever partials completed before the error.
		for _, p := range partials {
			if p.tab != nil {
				p.release()
			}
		}
		return nil, err
	}
	// Global ids assigned in ascending morsel order are exactly the
	// sequential scan's first-seen group order. They are all assigned
	// before the merge, so the merged arena is allocated once, at its
	// final size; each group still merges its partials in morsel order.
	total := 0
	for _, p := range partials {
		if p.tab != nil { // nil: a zone-map-pruned morsel, no partial state
			total += p.tab.Len()
		}
	}
	global := hashtab.NewInt64Table(0)
	toGlobal := make([]int32, 0, total)
	for _, p := range partials {
		if p.tab != nil {
			for _, key := range p.tab.Keys() {
				gid, _ := global.GetOrInsert(key)
				toGlobal = append(toGlobal, int32(gid))
			}
		}
	}
	gms := make([]stats.Moments, global.Len()*naggs)
	for _, p := range partials {
		if p.tab == nil {
			continue
		}
		for lid := range p.tab.Len() {
			gbase, lbase := int(toGlobal[lid])*naggs, lid*naggs
			for i := range naggs {
				gms[gbase+i].Merge(p.ms[lbase+i])
			}
		}
		toGlobal = toGlobal[p.tab.Len():]
		p.release()
	}
	res, err := groupedResult(&grp, global.Keys(), gms, q)
	if err != nil {
		return nil, err
	}
	res.ScannedRows, res.Stats = scanned.ScannedRows, scanned
	return res, nil
}

// groupedResult assembles a grouped result column by column from the
// global group keys (first-seen order) and their merged moments
// [gid*naggs + agg]: every aggregate's output is computed per group,
// the group ids are put in output order (groupOrder), and the rendered
// key column and one DOUBLE column per aggregate are gathered in that
// order.
func groupedResult(grp *Grouping, keys []int64, gms []stats.Moments, q Query) (*Result, error) {
	naggs := len(q.Aggs)
	outs := make([][]float64, naggs)
	for i, a := range q.Aggs {
		outs[i] = make([]float64, len(keys))
		for gid := range keys {
			st := AggState{Spec: a, Moments: gms[gid*naggs+i]}
			outs[i][gid] = st.Value()
		}
	}
	order, err := groupOrder(grp, keys, outs, q)
	if err != nil {
		return nil, err
	}
	schema := make(table.Schema, 0, naggs+1)
	chunks := make([]column.Column, 0, naggs+1)
	keyCol := column.NewString(q.GroupBy)
	for _, gid := range order {
		keyCol.Append(grp.Render(keys[gid]))
	}
	schema = append(schema, table.ColumnDef{Name: q.GroupBy, Type: column.String})
	chunks = append(chunks, keyCol)
	for i, a := range q.Aggs {
		schema = append(schema, table.ColumnDef{Name: a.Name(), Type: column.Float64})
		chunks = append(chunks, column.NewFloat64From(a.Name(), vec.GatherFloat64(outs[i], order)))
	}
	out, err := table.New(resultName(q), schema)
	if err != nil {
		return nil, err
	}
	if err := out.AdoptColumns(chunks); err != nil {
		return nil, err
	}
	return &Result{Table: out}, nil
}

// groupOrder returns the group ids of a grouped result in output order:
// first-seen order, or under ORDER BY sorted (sortLimit) on the named
// aggregate output — cmp.Compare, so NaN sorts below every number — or
// on the raw GROUP BY key before it is rendered: BIGINT as int64,
// VARCHAR by its word. Then cut to LIMIT.
func groupOrder(grp *Grouping, keys []int64, outs [][]float64, q Query) (vec.Sel, error) {
	var compare func(a, b int32) int
	if q.OrderBy == q.GroupBy {
		compare = func(a, b int32) int { return grp.compare(keys[a], keys[b]) }
	} else if q.OrderBy != "" {
		i := slices.IndexFunc(q.Aggs, func(a AggSpec) bool { return a.Name() == q.OrderBy })
		if i < 0 {
			return nil, fmt.Errorf("engine: ORDER BY %q must name an aggregate output or the GROUP BY column", q.OrderBy)
		}
		out := outs[i]
		compare = func(a, b int32) int { return cmp.Compare(out[a], out[b]) }
	}
	return sortLimit(vec.NewSelAll(len(keys)), compare, q), nil
}

func resultName(q Query) string { return "result(" + q.Table + ")" }
