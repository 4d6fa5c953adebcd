package impression

import (
	"fmt"
	"slices"
	"sync"
)

// Hierarchy is a multi-layer stack of impressions over one base table
// (§3.1 "Layers"): layer 0 is the largest and samples the load stream
// directly; every smaller layer ℓ+1 is refreshed exclusively from layer
// ℓ — maintenance of small impressions touches only the impression one
// layer below, never the base data, which is what gives them the "fast
// reflexes" the paper asks for. A refresh draws which of the parent's
// sample slots the child keeps (Algorithm R over slot indices) and
// builds only those samples, so it costs what the child keeps plus one
// random draw per parent slot.
type Hierarchy struct {
	// mu serialises maintenance (OfferRange, Refresh). Queries never
	// take it: the layer stack is fixed at NewHierarchy, and each layer
	// guards its own samples.
	mu           sync.Mutex
	layers       []*Impression // descending size; layers[0] largest
	ascending    []*Impression // layers smallest-first
	refreshEvery int64
	sinceRefresh int64
}

// NewHierarchy stacks the given impressions. Sizes must be strictly
// decreasing and all impressions must share the base table.
func NewHierarchy(layers []*Impression, refreshEvery int64) (*Hierarchy, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("impression: hierarchy needs at least one layer")
	}
	if refreshEvery <= 0 {
		refreshEvery = 4096
	}
	base := layers[0].Base()
	for i := 1; i < len(layers); i++ {
		if layers[i].Base() != base {
			return nil, fmt.Errorf("impression: layer %d has a different base table", i)
		}
		if layers[i].Cap() >= layers[i-1].Cap() {
			return nil, fmt.Errorf("impression: layer sizes must strictly decrease (layer %d: %d >= %d)",
				i, layers[i].Cap(), layers[i-1].Cap())
		}
	}
	layers = slices.Clone(layers)
	ascending := slices.Clone(layers)
	slices.Reverse(ascending)
	return &Hierarchy{layers: layers, ascending: ascending, refreshEvery: refreshEvery}, nil
}

// Layers returns the layer stack, largest first. The slice is shared:
// callers must not modify it.
func (h *Hierarchy) Layers() []*Impression { return h.layers }

// OfferRange presents the freshly loaded base rows [lo, hi) to the
// hierarchy under one hold of its lock: the largest layer samples them
// directly; smaller layers are refreshed from their parent every
// refreshEvery offers. The batch reaches layer 0 in chunks cut at those
// refresh points, so samples, versions and random draws are exactly
// those of one offer per row. A batch that leaves the smallest layer
// empty while layer 0 is not gets one refresh more at its end, so a
// first load shorter than refreshEvery does not leave the smaller
// layers empty; it does not move the refresh points. The same rule
// refreshes a hierarchy whose Refresh ran over an empty table, as
// during a backfill.
func (h *Hierarchy) OfferRange(lo, hi int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for lo < hi {
		end := hi
		if due := h.refreshEvery - h.sinceRefresh; int64(hi-lo) > due {
			end = lo + int32(due)
		}
		h.layers[0].OfferRange(lo, end)
		h.sinceRefresh += int64(end - lo)
		if h.sinceRefresh >= h.refreshEvery {
			h.sinceRefresh = 0
			h.refreshLocked()
		}
		lo = end
	}
	if smallest := h.ascending[0]; smallest != h.layers[0] && smallest.Len() == 0 && h.layers[0].Len() > 0 {
		h.refreshLocked()
	}
}

// Refresh rebuilds all smaller layers from their parents immediately.
func (h *Hierarchy) Refresh() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sinceRefresh = 0
	h.refreshLocked()
}

// refreshLocked redraws every smaller layer from its parent, largest
// first; h.mu is held.
func (h *Hierarchy) refreshLocked() {
	for i := 1; i < len(h.layers); i++ {
		h.layers[i].refreshFrom(h.layers[i-1])
	}
}

// Ascending returns the layers ordered smallest-first — the order in
// which bounded query processing escalates (§3.2: "query evaluation
// moves to an impression on a lower level, with a higher level of
// detail"). The slice is shared: callers must not modify it.
func (h *Hierarchy) Ascending() []*Impression { return h.ascending }
