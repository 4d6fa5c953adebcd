package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"sciborq/internal/expr"
	"sciborq/internal/table"
	"sciborq/internal/vec"
)

// Selection-vector scans: execute directly over an explicit sorted row
// position vector into a base-table snapshot — the engine-native way to
// evaluate a query against an impression layer without materialising
// the sample into a standalone table first (no per-query copy, no cache
// invalidation cliff when the sample changes).
//
// The position vector is partitioned into morsels aligned to the base
// table's granule layout (positions p with p/MorselRows == m form
// morsel m), so zone maps prune granules no sampled position lands in
// and the partial merge order is fixed by the layout — results are
// bit-identical at every parallelism level, exactly like base scans.

// selPart is one morsel of a selection-vector scan: the contiguous
// slice positions[plo:phi) whose values all fall in base-row window
// [rowLo, rowHi).
type selPart struct {
	plo, phi     int
	rowLo, rowHi int
}

// partitionSel splits a sorted position vector into granule-aligned
// parts. Only non-empty granules produce parts, and each part's end is
// found by binary search for the next granule boundary, so the cost is
// O(granules · log |positions|): independent of the base table and
// without a division per position.
func partitionSel(positions vec.Sel, n int, opts ExecOptions) []selPart {
	if len(positions) == 0 {
		return nil
	}
	mr := opts.morselRows()
	last := int(positions[len(positions)-1])
	parts := make([]selPart, 0, min(opts.morselCount(n), last/mr+1))
	for start := 0; start < len(positions); {
		rowLo := int(positions[start]) / mr * mr
		rowHi := rowLo + mr
		end := len(positions)
		if rowHi <= last {
			// rowHi <= last < 2^31, so the boundary fits a position.
			end, _ = slices.BinarySearch(positions[start:], int32(rowHi))
			end += start
		}
		parts = append(parts, selPart{plo: start, phi: end, rowLo: rowLo, rowHi: min(rowHi, n)})
		start = end
	}
	return parts
}

// checkPositions validates the FilterSel contract without touching row
// data: strictly ascending (a duplicate would let the dense fast path
// treat the part as covering its whole row window and return rows that
// were never sampled), within [0, n).
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

// filterSelPart evaluates pred over one part. A part covering its
// whole base-row window runs the contiguous range kernels; any other
// part runs the sel-native kernels, whose cost is proportional to the
// part. The returned selection is pooled scratch.
func filterSelPart(t *table.Table, pred expr.Predicate, part vec.Sel) (vec.Sel, error) {
	wlo, whi := int(part[0]), int(part[len(part)-1])+1
	if len(part) == whi-wlo {
		return expr.FilterRange(t, pred, wlo, whi)
	}
	return expr.FilterSel(t, pred, part)
}

// scanSelMorsels is the selection-scan analogue of scanMorsels: over
// the granule-aligned parts of positions (partitionSel), it extracts
// zone-map checks from the original predicate, prepares it once, and
// runs perPart over every part with its filtered selection (pooled
// scratch, valid only for the duration of the call). Zone-pruned parts are
// skipped without evaluating the predicate; perPart never sees them.
//
// t must be a table snapshot and positions must satisfy the
// checkPositions contract.
func scanSelMorsels(t *table.Table, positions vec.Sel, parts []selPart, pred expr.Predicate, opts ExecOptions, perPart func(m int, sel vec.Sel) error) (ScanStats, error) {
	stats := ScanStats{Morsels: len(parts), ScannedRows: len(positions)}
	checks := zoneChecks(t, pred)
	if len(checks) > 0 {
		// Pruning may skip every evaluation; surface bad references
		// deterministically first.
		if err := validatePred(t, pred); err != nil {
			return stats, err
		}
	}
	if len(parts) > 1 {
		var err error
		if pred, err = preparePred(t, pred); err != nil {
			return stats, err
		}
	}
	var skippedMorsels, skippedRows atomic.Int64
	// Reuse the morsel scheduler with one "row" per part: workers pull
	// part indices from the shared counter and errors surface in part
	// order.
	partOpts := ExecOptions{Parallelism: opts.workers(), MorselRows: 1, Ctx: opts.Ctx}
	err := forEachMorsel(len(parts), partOpts, func(m, _, _ int) error {
		p := parts[m]
		for _, zc := range checks {
			if zc.canSkip(p.rowLo, p.rowHi) {
				skippedMorsels.Add(1)
				skippedRows.Add(int64(p.phi - p.plo))
				return nil
			}
		}
		// Surviving part: account granule residency before reading.
		t.TouchRange(p.rowLo, p.rowHi)
		sel, err := filterSelPart(t, pred, positions[p.plo:p.phi])
		if err != nil {
			return err
		}
		err = perPart(m, sel)
		vec.PutSel(sel)
		return err
	})
	stats.SkippedMorsels = int(skippedMorsels.Load())
	stats.SkippedRows = int(skippedRows.Load())
	stats.ScannedRows = len(positions) - stats.SkippedRows
	return stats, err
}

// FilterSel evaluates pred over only the rows of t listed in positions
// (strictly ascending, within range) with morsel-driven parallelism and
// zone-map granule pruning, returning the matching subset in ascending
// row order. The scan runs over a snapshot of t, so it is safe against
// concurrent appends. A TRUE predicate returns positions itself
// (shared, not copied); every other result is freshly allocated.
func FilterSel(t *table.Table, pred expr.Predicate, positions vec.Sel, opts ExecOptions) (vec.Sel, ScanStats, error) {
	t = t.Snapshot()
	n := t.Len()
	if err := checkPositions(positions, n); err != nil {
		return nil, ScanStats{}, err
	}
	if isTruePred(pred) {
		return positions, ScanStats{Morsels: len(partitionSel(positions, n, opts)), ScannedRows: len(positions)}, nil
	}
	if len(positions) == 0 {
		return vec.Sel{}, ScanStats{}, nil
	}
	parts := partitionSel(positions, n, opts)
	partsOut := make([]vec.Sel, len(parts))
	stats, err := scanSelMorsels(t, positions, parts, pred, opts, func(m int, sel vec.Sel) error {
		partsOut[m] = append(vec.Sel(nil), sel...) // sel is pooled scratch
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	total := 0
	for _, p := range partsOut {
		total += len(p)
	}
	out := make(vec.Sel, 0, total)
	for _, p := range partsOut {
		out = append(out, p...)
	}
	return out, stats, nil
}

// EstimateSelScanRows predicts how many sampled rows a selection scan
// of pred over positions will actually evaluate after zone-map granule
// pruning, without executing it — the prune-aware input to cost-model
// layer picking for impression layers (rows = |impression|, never
// |base|). The walk costs O(|positions| + granules), not O(base rows).
func EstimateSelScanRows(t *table.Table, pred expr.Predicate, positions vec.Sel, opts ExecOptions) int {
	t = t.Snapshot()
	if isTruePred(pred) {
		return len(positions)
	}
	checks := zoneChecks(t, pred)
	if len(checks) == 0 {
		return len(positions)
	}
	scanned := 0
	for _, p := range partitionSel(positions, t.Len(), opts) {
		skip := false
		for _, zc := range checks {
			if zc.canSkip(p.rowLo, p.rowHi) {
				skip = true
				break
			}
		}
		if !skip {
			scanned += p.phi - p.plo
		}
	}
	return scanned
}
