package impression

import (
	"fmt"
	"sort"
	"sync"
)

// Hierarchy is a multi-layer stack of impressions over one base table
// (§3.1 "Layers"): layer 0 is the largest and samples the load stream
// directly; every smaller layer ℓ+1 is refreshed exclusively from layer
// ℓ — maintenance of small impressions touches only the impression one
// layer below, never the base data, which is what gives them the "fast
// reflexes" the paper asks for.
type Hierarchy struct {
	mu           sync.Mutex
	layers       []*Impression // descending size; layers[0] largest
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
	return &Hierarchy{layers: layers, refreshEvery: refreshEvery}, nil
}

// Layers returns the layer stack, largest first.
func (h *Hierarchy) Layers() []*Impression {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Impression, len(h.layers))
	copy(out, h.layers)
	return out
}

// OfferRange presents the freshly loaded base rows [lo, hi) to the
// hierarchy under one hold of its lock: the largest layer samples them
// directly; smaller layers are refreshed from their parent every
// refreshEvery offers. The batch reaches layer 0 in chunks cut at those
// refresh points, so samples and refreshes are exactly those of one
// offer per row.
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
			h.refreshLocked()
		}
		lo = end
	}
}

// Refresh rebuilds all smaller layers from their parents immediately.
func (h *Hierarchy) Refresh() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.refreshLocked()
}

func (h *Hierarchy) refreshLocked() error {
	h.sinceRefresh = 0
	for i := 1; i < len(h.layers); i++ {
		if err := h.layers[i].ReplaceFrom(h.layers[i-1].Samples()); err != nil {
			return fmt.Errorf("impression: refreshing layer %d: %w", i, err)
		}
	}
	return nil
}

// Ascending returns the layers ordered smallest-first — the order in
// which bounded query processing escalates (§3.2: "query evaluation
// moves to an impression on a lower level, with a higher level of
// detail").
func (h *Hierarchy) Ascending() []*Impression {
	out := h.Layers()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Cap() < out[b].Cap() })
	return out
}
