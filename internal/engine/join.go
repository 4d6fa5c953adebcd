package engine

import (
	"fmt"

	"sciborq/internal/column"
	"sciborq/internal/hashtab"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// HashJoin performs an inner equi-join of left and right on BIGINT key
// columns (the foreign-key joins of the SkyServer schema: fact table to
// dimension tables). The result contains all left columns plus the
// non-key right columns, prefixed with the right table name on clashes.
//
// The build side is the right (dimension) table, hashed once; probe
// morsels over the left (fact) table run on the worker pool under opts
// — the standard column-store FK-join shape. Per-morsel match lists
// concatenate in morsel order, so the output row order is identical to
// a sequential probe. Both sides are snapshotted on entry, so
// concurrent Loads are safe.
func HashJoin(left, right *table.Table, leftKey, rightKey string, opts ExecOptions) (*table.Table, error) {
	left, right = left.Snapshot(), right.Snapshot()
	lk, err := left.Int64(leftKey)
	if err != nil {
		return nil, fmt.Errorf("engine: join left key: %w", err)
	}
	rk, err := right.Int64(rightKey)
	if err != nil {
		return nil, fmt.Errorf("engine: join right key: %w", err)
	}
	// Build: flat open-addressing index over the dimension keys, with
	// duplicate chains in a next-pointer arena (no per-key slices).
	build := hashtab.BuildInt64Index(rk)
	// Probe: collect matching row pairs per morsel into pooled scratch,
	// concatenate in morsel order, release the scratch.
	type matches struct{ l, r vec.Sel }
	parts := make([]matches, opts.morselCount(len(lk)))
	if err := forEachMorsel(len(lk), opts, func(m, lo, hi int) error {
		p := matches{l: vec.GetSel(hi - lo), r: vec.GetSel(hi - lo)}
		for i := lo; i < hi; i++ {
			for rrow := build.First(lk[i]); rrow >= 0; rrow = build.Next(rrow) {
				p.l = append(p.l, int32(i))
				p.r = append(p.r, rrow)
			}
		}
		parts[m] = p
		return nil
	}); err != nil {
		for _, p := range parts {
			vec.PutSel(p.l)
			vec.PutSel(p.r)
		}
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p.l)
	}
	// The combined selections are themselves pooled scratch: they die
	// with this call once the output columns are materialised. Non-nil
	// even when empty — a zero-match join is an empty result, not an
	// all-rows selection.
	lsel, rsel := vec.GetSel(total), vec.GetSel(total)
	defer func() {
		vec.PutSel(lsel)
		vec.PutSel(rsel)
	}()
	for _, p := range parts {
		lsel = append(lsel, p.l...)
		rsel = append(rsel, p.r...)
		vec.PutSel(p.l)
		vec.PutSel(p.r)
	}
	// Assemble output schema: left columns, then right minus its key.
	leftNames := left.Schema().Names()
	used := make(map[string]bool, len(leftNames))
	for _, n := range leftNames {
		used[n] = true
	}
	schema := make(table.Schema, 0, len(leftNames)+len(right.Schema()))
	schema = append(schema, left.Schema()...)
	type rightCol struct {
		src string // column name in right
		dst string // output name
	}
	var rightCols []rightCol
	for _, def := range right.Schema() {
		if def.Name == rightKey {
			continue
		}
		out := def.Name
		if used[out] {
			out = right.Name() + "." + def.Name
		}
		used[out] = true
		schema = append(schema, table.ColumnDef{Name: out, Type: def.Type})
		rightCols = append(rightCols, rightCol{src: def.Name, dst: out})
	}
	joined, err := table.New(left.Name()+"⋈"+right.Name(), schema)
	if err != nil {
		return nil, err
	}
	// Materialise all output columns with the matched selections.
	chunks := make([]column.Column, 0, len(schema))
	for _, n := range leftNames {
		c, err := left.Col(n)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, c.Slice(lsel))
	}
	for _, rc := range rightCols {
		c, err := right.Col(rc.src)
		if err != nil {
			return nil, err
		}
		sliced := c.Slice(rsel)
		chunks = append(chunks, renameColumn(sliced, rc.dst))
	}
	if err := joined.AppendColumns(chunks); err != nil {
		return nil, err
	}
	return joined, nil
}

// renameColumn returns a column identical to c but with a new name.
func renameColumn(c column.Column, name string) column.Column {
	switch cc := c.(type) {
	case *column.Float64Col:
		return column.NewFloat64From(name, cc.Data)
	case *column.Int64Col:
		return column.NewInt64From(name, cc.Data)
	case *column.StringCol:
		out := column.NewString(name)
		for i := 0; i < cc.Len(); i++ {
			out.Append(cc.Value(int32(i)))
		}
		return out
	case *column.BoolCol:
		out := column.NewBool(name)
		out.Data = append(out.Data, cc.Data...)
		return out
	}
	return c
}
