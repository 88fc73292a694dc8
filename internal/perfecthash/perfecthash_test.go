package perfecthash

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	tab := mustTable(t, nil, 1)
	if _, ok := tab.lookup(42); ok {
		t.Error("lookup in empty table succeeded")
	}
	if _, ok := tab.lookup(0); ok {
		t.Error("key-0 lookup in empty table succeeded")
	}
}

func TestSingle(t *testing.T) {
	tab := mustTable(t, []uint64{7}, 1)
	if _, ok := tab.lookup(8); ok {
		t.Error("lookup(8) should miss")
	}
}

func TestSequentialKeys(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	tab := mustTable(t, keys, 2)
	for k := uint64(1000); k < 2000; k++ {
		if _, ok := tab.lookup(k); ok {
			t.Fatalf("lookup(%d) should miss", k)
		}
	}
}

func TestPackedPairKeys(t *testing.T) {
	// The oracle's keys are packed (id1, id2) pairs; make sure structured
	// keys hash fine.
	var keys []uint64
	for a := uint64(0); a < 50; a++ {
		for b := uint64(0); b < 50; b++ {
			keys = append(keys, a<<32|b)
		}
	}
	tab := mustTable(t, keys, 3)
	if _, ok := tab.lookup(uint64(51) << 32); ok {
		t.Error("miss expected")
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	if _, _, _, err := BuildCompact([]uint64{1, 2, 3, 2}, 4); err == nil {
		t.Error("expected error on duplicate keys")
	}
}

// Space guarantee on built tables: CompactSlots(n) slots, each member on its
// own slot.
func TestLinearSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{10, 100, 1000, 20000} {
		keys := make([]uint64, n)
		seen := map[uint64]bool{}
		for i := range keys {
			for {
				k := rng.Uint64()
				if !seen[k] {
					seen[k] = true
					keys[i] = k
					break
				}
			}
		}
		tab := mustTable(t, keys, uint64(n))
		if float64(len(tab.keys)) > 1.07*float64(n)+1 {
			t.Errorf("n=%d: %d slots exceeds 1.07n", n, len(tab.keys))
		}
		if len(tab.disp) != CompactBuckets(n) {
			t.Errorf("n=%d: %d displacements, want %d", n, len(tab.disp), CompactBuckets(n))
		}
	}
}

// Property: for random key sets, every key is found with its index and
// random probes never alias onto a member.
func TestLookupProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		seen := map[uint64]bool{}
		keys := make([]uint64, 0, n)
		for len(keys) < n {
			k := rng.Uint64()
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		tab, err := newTable(keys, uint64(seed))
		if err != nil {
			return false
		}
		for i, k := range keys {
			if v, ok := tab.lookup(k); !ok || v != int32(i) {
				return false
			}
		}
		for i := 0; i < 50; i++ {
			k := rng.Uint64()
			if v, ok := tab.lookup(k); ok && keys[v] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
