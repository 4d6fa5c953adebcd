package impression

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentOfferViewRefresh hammers one hierarchy with concurrent
// batch offers (OfferRange, batches crossing the refresh points), view
// reads through Ascending and refreshes (run under -race in CI). Every
// view observed mid-stream must satisfy the contract: strictly
// ascending positions inside the rows offered so far, size within the
// layer cap, and a per-layer version that never goes backwards.
func TestConcurrentOfferViewRefresh(t *testing.T) {
	const rows = 60_000
	base := buildBase(t, rows, 3)
	l0, err := New(base, Config{Name: "L0", Size: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := New(base, Config{Name: "L1", Size: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy([]*Impression{l0, l1}, 1024)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	// offering is the end of the batch being offered, stored before
	// the offer starts: no view may hold a position at or beyond it.
	var offering atomic.Int32

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for lo, size := int32(0), int32(1); lo < rows; size = size*7%2503 + 1 {
			hi := min(lo+size, rows)
			offering.Store(hi)
			h.OfferRange(lo, hi)
			lo = hi
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			h.Refresh()
		}
	}()

	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastVersion := map[string]uint64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, im := range h.Ascending() {
					v := im.View()
					end := offering.Load()
					if len(v.Positions) > im.Cap() {
						t.Errorf("%s: view has %d positions, cap %d", im.Name(), len(v.Positions), im.Cap())
						return
					}
					for i := 1; i < len(v.Positions); i++ {
						if v.Positions[i] <= v.Positions[i-1] {
							t.Errorf("%s: positions not strictly ascending at %d", im.Name(), i)
							return
						}
					}
					if len(v.Positions) > 0 && v.Positions[len(v.Positions)-1] >= end {
						t.Errorf("%s: position %d beyond the %d rows offered", im.Name(), v.Positions[len(v.Positions)-1], end)
						return
					}
					if v.Weights != nil && (len(v.Weights) != len(v.Positions) || len(v.Pis) != len(v.Positions)) {
						t.Errorf("%s: weight alignment broken", im.Name())
						return
					}
					if last := lastVersion[im.Name()]; v.Version < last {
						t.Errorf("%s: version went backwards (%d -> %d)", im.Name(), last, v.Version)
						return
					}
					lastVersion[im.Name()] = v.Version
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: the final views equal the sample sets exactly.
	for _, im := range h.Layers() {
		assertViewMatches(t, im, im.View())
	}
}
