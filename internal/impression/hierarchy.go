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

// Offer presents one freshly loaded base row to the hierarchy: the
// largest layer samples it directly; smaller layers are refreshed from
// their parent every refreshEvery offers.
func (h *Hierarchy) Offer(pos int32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.layers[0].Offer(pos)
	h.sinceRefresh++
	if h.sinceRefresh >= h.refreshEvery {
		h.refreshLocked()
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
