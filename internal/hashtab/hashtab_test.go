package hashtab

import (
	"testing"
)

// TestInt64TableDenseIDs checks slots are assigned densely in
// first-seen order and stay stable across lookups.
func TestInt64TableDenseIDs(t *testing.T) {
	tab := NewInt64Table(0)
	keys := []int64{42, -7, 0, 42, 1 << 60, -7, 42}
	wantSlots := []uint32{0, 1, 2, 0, 3, 1, 0}
	wantFresh := []bool{true, true, true, false, true, false, false}
	for i, k := range keys {
		slot, fresh := tab.GetOrInsert(k)
		if slot != wantSlots[i] || fresh != wantFresh[i] {
			t.Fatalf("GetOrInsert(%d) = (%d, %t), want (%d, %t)",
				k, slot, fresh, wantSlots[i], wantFresh[i])
		}
	}
	if tab.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tab.Len())
	}
	wantKeys := []int64{42, -7, 0, 1 << 60}
	for slot, k := range wantKeys {
		if got := tab.Key(uint32(slot)); got != k {
			t.Fatalf("Key(%d) = %d, want %d", slot, got, k)
		}
		got, ok := tab.Get(k)
		if !ok || got != uint32(slot) {
			t.Fatalf("Get(%d) = (%d, %t), want (%d, true)", k, got, ok, slot)
		}
	}
	if _, ok := tab.Get(99); ok {
		t.Fatal("Get(99) found a key never inserted")
	}
}

// TestInt64TableGrowth inserts far past the initial bucket count and
// checks every dense id survives the rehashes.
func TestInt64TableGrowth(t *testing.T) {
	tab := NewInt64Table(0)
	const n = 10_000
	for i := 0; i < n; i++ {
		k := int64(i)*2654435761 - 5000 // spread, includes negatives
		slot, fresh := tab.GetOrInsert(k)
		if !fresh || slot != uint32(i) {
			t.Fatalf("insert %d: slot=%d fresh=%t, want slot=%d fresh=true", i, slot, fresh, i)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len() = %d, want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := int64(i)*2654435761 - 5000
		slot, ok := tab.Get(k)
		if !ok || slot != uint32(i) {
			t.Fatalf("Get after growth: key %d -> (%d, %t), want (%d, true)", k, slot, ok, i)
		}
	}
	keys := tab.Keys()
	if len(keys) != n || keys[0] != -5000 {
		t.Fatalf("Keys() corrupted after growth: len=%d keys[0]=%d", len(keys), keys[0])
	}
}

// TestInt64TableCollisions forces long linear-probe chains: keys chosen
// to collide still resolve to distinct slots.
func TestInt64TableCollisions(t *testing.T) {
	tab := NewInt64Table(8)
	// Same low bits after masking happens post-hash, so emulate worst
	// case with a dense cluster plus sparse outliers.
	var keys []int64
	for i := 0; i < 200; i++ {
		keys = append(keys, int64(i), int64(i)<<32, int64(i)<<48)
	}
	seen := make(map[uint32]int64)
	distinct := make(map[int64]bool)
	for _, k := range keys {
		slot, _ := tab.GetOrInsert(k)
		if prev, dup := seen[slot]; dup && prev != k {
			t.Fatalf("slot %d assigned to both %d and %d", slot, prev, k)
		}
		seen[slot] = k
		distinct[k] = true
	}
	if tab.Len() != len(distinct) {
		t.Fatalf("Len() = %d, want %d distinct keys", tab.Len(), len(distinct))
	}
}

// TestInt64TableReset checks Reset empties the table but keeps it
// usable, and that the pool round-trips tables clean.
func TestInt64TableReset(t *testing.T) {
	tab := NewInt64Table(0)
	for i := 0; i < 1000; i++ {
		tab.GetOrInsert(int64(i))
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len() after Reset = %d, want 0", tab.Len())
	}
	if _, ok := tab.Get(5); ok {
		t.Fatal("Get found a key after Reset")
	}
	slot, fresh := tab.GetOrInsert(777)
	if slot != 0 || !fresh {
		t.Fatalf("first insert after Reset = (%d, %t), want (0, true)", slot, fresh)
	}

	pooled := GetTable()
	pooled.GetOrInsert(1)
	pooled.GetOrInsert(2)
	PutTable(pooled)
	again := GetTable()
	if again.Len() != 0 {
		t.Fatalf("pooled table not reset: Len() = %d", again.Len())
	}
	PutTable(again)
}

// TestInt64TableAgainstMap cross-checks a large random workload against
// a Go map reference.
func TestInt64TableAgainstMap(t *testing.T) {
	tab := NewInt64Table(0)
	ref := make(map[int64]uint32)
	state := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 200_000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		k := int64(state % 30_000) // heavy duplication
		slot, fresh := tab.GetOrInsert(k)
		want, seen := ref[k]
		if fresh != !seen {
			t.Fatalf("key %d: fresh=%t but map seen=%t", k, fresh, seen)
		}
		if seen && slot != want {
			t.Fatalf("key %d: slot %d, want stable %d", k, slot, want)
		}
		if !seen {
			ref[k] = slot
		}
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len() = %d, want %d", tab.Len(), len(ref))
	}
}
