package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// The scan loop. Every scan — a full scan of a base table, a scan of an
// impression's sampled positions, the refinement of a cached selection,
// and the fold over an already-computed selection — is a list of
// granule-aligned parts run through one loop: zone-map pruning,
// predicate preparation, granule residency and pooled filtering happen
// in exactly one place.
//
// A part is one morsel m of the base table's layout, restricted to the
// rows the scan visits in it. Positions p with p/MorselRows == m form
// morsel m, so zone maps prune granules no visited row lands in, and
// partials keyed by m merge in the same order whatever the parts are —
// results are bit-identical at every parallelism level, and between a
// cold scan and a recycled selection.

// part is one morsel of a scan: the rows of base-row window [lo, hi) of
// morsel m — all of them when pos is nil, otherwise exactly pos.
type part struct {
	m, lo, hi int
	pos       vec.Sel
}

// rows returns the number of rows the part visits.
func (p part) rows() int {
	if p.pos == nil {
		return p.hi - p.lo
	}
	return len(p.pos)
}

// rowsOf returns the number of rows a scan over parts visits.
func rowsOf(parts []part) int {
	total := 0
	for _, p := range parts {
		total += p.rows()
	}
	return total
}

// scanParts lays out a scan of a table of n rows: one part per morsel of
// [0, n) when positions is nil, otherwise partitionSel's parts.
func scanParts(positions vec.Sel, n int, opts ExecOptions) []part {
	if positions != nil {
		return partitionSel(positions, n, opts)
	}
	mr := opts.morselRows()
	parts := make([]part, opts.morselCount(n))
	for m := range parts {
		parts[m] = part{m: m, lo: m * mr, hi: min(m*mr+mr, n)}
	}
	return parts
}

// partitionSel splits a sorted position vector into granule-aligned
// parts. Only non-empty granules produce parts, and each part's end is
// found by binary search for the next granule boundary, so the cost is
// O(granules · log |positions|): independent of the base table and
// without a division per position.
func partitionSel(positions vec.Sel, n int, opts ExecOptions) []part {
	if len(positions) == 0 {
		return nil
	}
	mr := opts.morselRows()
	last := int(positions[len(positions)-1])
	parts := make([]part, 0, min(opts.morselCount(n), last/mr+1))
	for start := 0; start < len(positions); {
		m := int(positions[start]) / mr
		lo, hi := m*mr, m*mr+mr
		end := len(positions)
		if hi <= last {
			// hi <= last < 2^31, so the boundary fits a position.
			end, _ = slices.BinarySearch(positions[start:], int32(hi))
			end += start
		}
		parts = append(parts, part{m: m, lo: lo, hi: min(hi, n), pos: positions[start:end]})
		start = end
	}
	return parts
}

// checkPositions validates the position contract of Filter without
// touching row data: strictly ascending (a duplicate would let a part
// pass for a gapless run and return rows that were never sampled),
// within [0, n).
func checkPositions(positions vec.Sel, n int) error {
	if len(positions) == 0 {
		return nil
	}
	if p := positions[0]; p < 0 {
		return fmt.Errorf("engine: selection scan position %d is negative", p)
	}
	for i := 1; i < len(positions); i++ {
		if positions[i] <= positions[i-1] {
			return fmt.Errorf("engine: selection scan positions not strictly ascending at index %d (%d after %d)",
				i, positions[i], positions[i-1])
		}
	}
	if last := int(positions[len(positions)-1]); last >= n {
		return fmt.Errorf("engine: selection scan position %d out of range (table has %d rows)", last, n)
	}
	return nil
}

// filterPart evaluates pred over one part. A window, or a gapless run of
// positions, takes the range kernels; any other part takes the sel
// kernels, whose cost is proportional to the part. The returned
// selection is pooled scratch.
func filterPart(t *table.Table, pred expr.Predicate, p part) (vec.Sel, error) {
	if p.pos == nil {
		return pred.FilterRange(t, p.lo, p.hi)
	}
	lo, hi := int(p.pos[0]), int(p.pos[len(p.pos)-1])+1
	if len(p.pos) == hi-lo {
		return pred.FilterRange(t, lo, hi)
	}
	return pred.FilterSel(t, p.pos)
}

// scan is the one scan loop of the engine: it validates pred's column
// references (zone-map pruning may skip every evaluation that would
// otherwise surface a bad one), extracts zone-map checks from the
// original predicate, prepares it once for multi-part scans, and runs
// perPart over every part with the rows of the part matching pred.
// Parts whose zone maps prove no row can match are skipped without
// evaluating the predicate; perPart never sees them. The selection
// handed to perPart is pool-backed scratch valid only for the duration
// of the call — perPart copies if it retains. Under a TRUE predicate it
// is the part's own positions, nil meaning every row of [p.lo, p.hi).
//
// t must be a table snapshot (callers go through Table.Snapshot), which
// is what makes concurrent Load-vs-query on the source table safe: the
// length and every column header were captured together under the
// table lock, and appenders only touch rows beyond them.
func scan(t *table.Table, parts []part, pred expr.Predicate, opts ExecOptions, perPart func(p part, sel vec.Sel) error) (ScanStats, error) {
	total := rowsOf(parts)
	stats := ScanStats{Morsels: len(parts), ScannedRows: total}
	if err := validatePred(t, pred); err != nil {
		return stats, err
	}
	checks := zoneChecks(t, pred)
	all := isTruePred(pred)
	if len(parts) > 1 && !all {
		var err error
		if pred, err = preparePred(t, pred); err != nil {
			return stats, err
		}
	}
	var skippedMorsels, skippedRows atomic.Int64
	err := forEachMorsel(len(parts), opts, func(i int) error {
		p := parts[i]
		if pruned(checks, p.lo, p.hi) {
			skippedMorsels.Add(1)
			skippedRows.Add(int64(p.rows()))
			return nil
		}
		// The part survived pruning and will be read: account its
		// granules' residency with the table's pager (durable tables
		// larger than RAM; no-op branch for in-memory tables).
		t.TouchRange(p.lo, p.hi)
		if all {
			return perPart(p, p.pos)
		}
		sel, err := filterPart(t, pred, p)
		if err != nil {
			return err
		}
		// Deferred, not sequenced after perPart: if perPart panics, the
		// unwind (towards runMorselGuarded's recover) must still return
		// the pooled scratch.
		defer vec.PutSel(sel)
		return perPart(p, sel)
	})
	stats.SkippedMorsels = int(skippedMorsels.Load())
	stats.SkippedRows = int(skippedRows.Load())
	stats.ScannedRows = total - stats.SkippedRows
	return stats, err
}

// Filter evaluates pred over a snapshot of t — over every row when
// positions is nil, otherwise over only the rows listed in positions
// (strictly ascending, within range) — with morsel-driven parallelism
// and zone-map granule pruning, returning the matching rows in
// ascending order and the scan statistics. The scan runs over a
// snapshot, so it is safe against concurrent appends. A TRUE predicate
// returns positions itself (nil: every row; shared, not copied); every
// other result is freshly allocated and never nil.
func Filter(t *table.Table, pred expr.Predicate, positions vec.Sel, opts ExecOptions) (vec.Sel, ScanStats, error) {
	t = t.Snapshot()
	n := t.Len()
	if err := checkPositions(positions, n); err != nil {
		return nil, ScanStats{}, err
	}
	parts := scanParts(positions, n, opts)
	if isTruePred(pred) {
		return positions, ScanStats{Morsels: len(parts), ScannedRows: rowsOf(parts)}, nil
	}
	matched := make([]vec.Sel, opts.morselCount(n))
	stats, err := scan(t, parts, pred, opts, func(p part, sel vec.Sel) error {
		matched[p.m] = append(vec.Sel(nil), sel...) // sel is pooled scratch
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	total := 0
	for _, s := range matched {
		total += len(s)
	}
	out := make(vec.Sel, 0, total)
	for _, s := range matched {
		out = append(out, s...)
	}
	return out, stats, nil
}

// EstimateScanRows predicts how many rows a scan of pred over t — every
// row when positions is nil, otherwise the listed positions — will
// actually evaluate after zone-map granule pruning, without executing
// it: the prune-aware input to cost-model layer picking (an impression
// layer costs |impression| rows, never |base|). The walk costs
// O(granules), not O(rows).
func EstimateScanRows(t *table.Table, pred expr.Predicate, positions vec.Sel, opts ExecOptions) int {
	t = t.Snapshot()
	checks := zoneChecks(t, pred)
	if len(checks) == 0 {
		if positions == nil {
			return t.Len()
		}
		return len(positions)
	}
	rows := 0
	for _, p := range scanParts(positions, t.Len(), opts) {
		if !pruned(checks, p.lo, p.hi) {
			rows += p.rows()
		}
	}
	return rows
}
