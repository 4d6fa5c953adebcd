package engine

import (
	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Prefiltered execution: run a query whose WHERE selection has already
// been computed — the recycler's hook into the executor. The selection
// is partitioned back into the same granule-aligned morsel layout a
// cold scan would produce and folded through the same per-morsel
// partial structures, so a query answered from a cached selection is
// bit-identical (floating point included) to the same query evaluated
// from scratch at any parallelism level.

// FilterStats evaluates pred over a snapshot of t with morsel-driven
// parallelism and zone-map pruning, returning the matching rows in
// ascending order and the scan statistics — what the recycler records
// for a miss. A nil selection means "all rows" (TRUE predicate).
func FilterStats(t *table.Table, pred expr.Predicate, opts ExecOptions) (vec.Sel, ScanStats, error) {
	return filterSnapshot(t.Snapshot(), pred, opts)
}

// selDriver adapts an already-computed selection to the scanDriver
// contract: positions are split into granule-aligned parts
// (partitionSel) and handed to the fold under their global morsel
// index, in parallel. Morsels no position lands in produce no partial —
// the same no-op merge a matchless morsel produces on the cold path.
// The ScanStats handed back is the caller's (the fold did not scan
// anything new).
func selDriver(t *table.Table, positions vec.Sel, n int, opts ExecOptions, scan ScanStats) scanDriver {
	return func(perMorsel func(m, lo, hi int, sel vec.Sel) error) (ScanStats, error) {
		parts := partitionSel(positions, n, opts)
		mr := opts.morselRows()
		// One scheduling unit per non-empty part, like scanSelMorsels.
		partOpts := ExecOptions{Parallelism: opts.workers(), MorselRows: 1, Ctx: opts.Ctx}
		err := forEachMorsel(len(parts), partOpts, func(i, _, _ int) error {
			p := parts[i]
			t.TouchRange(p.rowLo, p.rowHi)
			return perMorsel(p.rowLo/mr, p.rowLo, p.rowHi, positions[p.plo:p.phi])
		})
		return scan, err
	}
}

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
	if sel == nil {
		sel = vec.NewSelAll(t.Len())
	}
	if len(q.Aggs) > 0 {
		drive := selDriver(t, sel, t.Len(), opts, scan)
		if q.GroupBy != "" {
			return groupByAggregate(t, q, opts, drive)
		}
		return aggregate(t, q, opts, drive)
	}
	return project(t, sel, q, scan)
}
