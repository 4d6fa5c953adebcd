package reservoir

import (
	"testing"
	"testing/quick"

	"sciborq/internal/xrand"
)

// Property: any reservoir's sample size is min(cap, offered), and every
// sampled item was actually offered.
func TestRInvariants(t *testing.T) {
	f := func(capRaw, streamRaw uint16, seed uint64) bool {
		capN := int(capRaw%512) + 1
		stream := int(streamRaw % 4096)
		r, err := NewR[int](capN, xrand.New(seed))
		if err != nil {
			return false
		}
		for i := 0; i < stream; i++ {
			r.Offer(i)
		}
		want := capN
		if stream < capN {
			want = stream
		}
		if len(r.Items()) != want {
			return false
		}
		for _, v := range r.Items() {
			if v < 0 || v >= stream {
				return false
			}
		}
		return r.Count() == int64(stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sample distinctness — a reservoir never holds the same
// stream position twice (each position is offered once).
func TestRDistinctness(t *testing.T) {
	r, _ := NewR[int](256, xrand.New(44))
	for i := 0; i < 10000; i++ {
		r.Offer(i)
	}
	seen := make(map[int]bool, 256)
	for _, v := range r.Items() {
		if seen[v] {
			t.Fatalf("duplicate position %d in reservoir", v)
		}
		seen[v] = true
	}
}

// Property: Biased invariants — size bound, Pi in (0, 1], weights
// echo the weight function.
func TestBiasedInvariants(t *testing.T) {
	f := func(capRaw, streamRaw uint16, seed uint64) bool {
		capN := int(capRaw%256) + 1
		stream := int(streamRaw % 2048)
		weight := func(v int) float64 { return 0.1 + float64(v%7) }
		b, err := NewBiased[int](capN, weight, xrand.New(seed))
		if err != nil {
			return false
		}
		for i := 0; i < stream; i++ {
			b.Offer(i)
		}
		want := capN
		if stream < capN {
			want = stream
		}
		items := b.Items()
		if len(items) != want {
			return false
		}
		for _, it := range items {
			if it.Pi <= 0 || it.Pi > 1 {
				return false
			}
			if it.Weight != weight(it.Item) {
				return false
			}
			if it.Seq < 1 || it.Seq > int64(stream) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: LastSeen size bound holds for any k <= D.
func TestLastSeenInvariants(t *testing.T) {
	f := func(capRaw uint8, kRaw, dRaw uint16, seed uint64) bool {
		capN := int(capRaw%64) + 1
		d := float64(dRaw%1000) + 1
		k := float64(kRaw) * d / 65535 // k in [0, d]
		ls, err := NewLastSeen[int](capN, k, d, xrand.New(seed))
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			ls.Offer(i)
		}
		return len(ls.Items()) == capN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
